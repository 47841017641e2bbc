import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import critjac
from critjac import cli, recurrence, spectral
from critjac.errors import NumericFailure


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_laguerre(capsys):
    code, out, _ = run(["classify", "--p", "0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["tau"] == 0.0
    assert rep["rho"] == 0.25
    assert rep["ac"] == "(0,inf)"
    assert rep["spectrum"] == "half_line_ac"


# `critjac classify` for one model per regime, byte for byte.  Every field
# of the report derives from the regime table in coeffs, so any change
# to that table or to the report shows here.
CLASSIFY_GOLDEN = {
    "whole_line": (
        ["--sigma", "1.25", "--beta", "-0.875"],
        '{\n'
        '  "L": 1,\n'
        '  "ac": "(-inf,inf)",\n'
        '  "case": "sigma in (1,3/2], tau < 0: a.c. spectrum covers the real line",\n'
        '  "delta": 1.75,\n'
        '  "discrete_region": "empty",\n'
        '  "eikonal": {},\n'
        '  "gamma": 1.0,\n'
        '  "kind": "power",\n'
        '  "notes": [],\n'
        '  "nu": 0.5,\n'
        '  "rho": 0.375,\n'
        '  "sigma": 1.25,\n'
        '  "spectrum": "whole_line_ac",\n'
        '  "tau": -0.5,\n'
        '  "varsigma": 0.25\n'
        '}\n'),
    "all_discrete": (
        ["--sigma", "1.25", "--beta", "0.3"],
        '{\n'
        '  "L": 1,\n'
        '  "ac": "empty",\n'
        '  "case": "sigma in (1,3/2], tau > 0: purely discrete spectrum",\n'
        '  "delta": 1.75,\n'
        '  "discrete_region": "(-inf,inf)",\n'
        '  "eikonal": {},\n'
        '  "gamma": 1.0,\n'
        '  "kind": "power",\n'
        '  "notes": [],\n'
        '  "nu": 0.5,\n'
        '  "rho": 0.375,\n'
        '  "sigma": 1.25,\n'
        '  "spectrum": "all_discrete",\n'
        '  "tau": 1.85,\n'
        '  "varsigma": 0.25\n'
        '}\n'),
    "sigma_1_gamma_minus": (
        ["--sigma", "1", "--gamma", "-1"],
        '{\n'
        '  "L": 1,\n'
        '  "ac": "(-inf,-1)",\n'
        '  "case": "sigma = 1: a.c. spectrum on a tau-shifted half-axis",\n'
        '  "delta": 2.0,\n'
        '  "discrete_region": "(-1,inf)",\n'
        '  "eikonal": {},\n'
        '  "gamma": -1.0,\n'
        '  "kind": "power",\n'
        '  "notes": [],\n'
        '  "nu": 0.5,\n'
        '  "rho": 0.25,\n'
        '  "sigma": 1.0,\n'
        '  "spectrum": "half_line_ac",\n'
        '  "tau": 1.0,\n'
        '  "varsigma": 0.5\n'
        '}\n'),
    "sigma_1_2": (
        ["--sigma", "0.5"],
        '{\n'
        '  "L": 2,\n'
        '  "ac": "(0,inf)",\n'
        '  "case": "sigma in (0,1): a.c. spectrum on a half-axis from 0",\n'
        '  "delta": 1.5,\n'
        '  "discrete_region": "(-inf,0)",\n'
        '  "eikonal": {\n'
        '    "p2": "1/12"\n'
        '  },\n'
        '  "gamma": 1.0,\n'
        '  "kind": "power",\n'
        '  "notes": [],\n'
        '  "nu": 0.25,\n'
        '  "rho": 0.125,\n'
        '  "sigma": 0.5,\n'
        '  "spectrum": "half_line_ac",\n'
        '  "tau": 0.5,\n'
        '  "varsigma": 0.75\n'
        '}\n'),
    "sigma_3_2_tau_negative": (
        ["--sigma", "1.5", "--beta", "-1"],
        '{\n'
        '  "L": 1,\n'
        '  "ac": "(-inf,inf)",\n'
        '  "case": "sigma in (1,3/2], tau < 0: a.c. spectrum covers the real line",\n'
        '  "delta": 2.0,\n'
        '  "discrete_region": "empty",\n'
        '  "eikonal": {},\n'
        '  "gamma": 1.0,\n'
        '  "kind": "power",\n'
        '  "notes": [\n'
        '    "sigma = 3/2 with tau < 0: the decaying solution is unique only under the strengthened normalization u_n = 1 + O(n^{-1/2}), which the Volterra construction satisfies"\n'
        '  ],\n'
        '  "nu": 0.5,\n'
        '  "rho": 0.5,\n'
        '  "sigma": 1.5,\n'
        '  "spectrum": "whole_line_ac",\n'
        '  "tau": -0.5,\n'
        '  "varsigma": 0.0\n'
        '}\n'),
}


@pytest.mark.parametrize("name", list(CLASSIFY_GOLDEN))
def test_classify_report_golden(name, capsys):
    argv, expected = CLASSIFY_GOLDEN[name]
    code, out, _ = run(["classify"] + argv, capsys)
    assert code == 0
    assert out == expected

def test_classify_rejects_limit_circle(capsys):
    code, _, err = run(["classify", "--sigma", "2.0"], capsys)
    assert code == 2
    assert "LimitCircleRegime" in err


def test_classify_rejects_noncritical(capsys):
    code, _, err = run(["classify", "--sigma", "1.0", "--gamma", "0.5"], capsys)
    assert code == 2
    assert "NotCritical" in err


def test_missing_model_is_config_error(capsys):
    code, _, err = run(["density", "--lambda-min", "1.0"], capsys)
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["eigs", "--lambda-min", "-5", "--lambda-max", "-0.5"],
    ["density", "--lambda-min", "1.0"],
])
def test_non_finite_table_is_config_error(argv, capsys):
    # json reads NaN; the table model rejects it before anything is solved
    spec = ('{"kind": "table", "a": [1.0, NaN, 3.0], "b": [1.0, 3.0, 5.0], '
            '"sigma": 1.0, "alpha": 1.0, "beta": 0.5, "gamma": 1.0}')
    code, out, err = run(argv + ["--model", spec], capsys)
    assert code == 4
    assert out == ""
    assert "InvalidParameter: table entries must be finite" in err


def test_density_single_point(capsys):
    code, out, _ = run(["density", "--p", "0", "--lambda-min", "1.0",
                        "--N", "100000"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,xi,kappa,eta,w"
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(math.exp(-1.0), rel=1e-3)
    assert float(fields[4]) == 1.0


def test_density_error_row(capsys):
    code, out, _ = run(["density", "--p", "0", "--lambda-min", "-1.0",
                        "--N", "20000"], capsys)
    assert code == 3
    assert "ERROR:OutsideAC" in out


def test_density_default_window_past_cap(capsys):
    # no --N: the phase window at lambda = -50 starts beyond N_CAP, which
    # the row reports instead of allocating a window
    code, out, _ = run(["density", "--sigma", "1.25", "--beta", "-0.875",
                        "--lambda-min", "-50"], capsys)
    assert code == 3
    assert out.strip().split("\n")[1] == "-50,ERROR:InvalidParameter,,,"


def test_density_rejects_zero_threads(capsys):
    code, out, err = run(["density", "--p", "0", "--lambda-min", "1.0",
                          "--N", "20000", "--threads", "0"], capsys)
    assert code == 4
    assert out == ""
    assert "InvalidParameter" in err


def test_density_error_row_mid_sweep(monkeypatch, capsys):
    # an error row keeps its place, and eta continues from the last good row
    etas = {1.0: 3.0, 2.0: -3.0, 4.0: -2.5, 5.0: -2.0}

    def fake_density(lam, params, model, N=None):
        if lam not in etas:
            raise NumericFailure("injected")
        return spectral.DensitySample(lam, 0.1, 1.0, etas[lam], 0.5)

    monkeypatch.setattr(spectral, "density", fake_density)
    code, out, _ = run(["density", "--p", "0", "--lambda-min", "1", "--lambda-max",
                        "5", "--lambda-step", "1"], capsys)
    assert code == 3
    rows = out.strip().split("\n")[1:]
    assert rows[2] == "3,ERROR:NumericFailure,,,"
    got = [float(rows[k].split(",")[3]) for k in (0, 1, 3, 4)]
    two_pi = 2.0 * math.pi
    assert got == [3.0, -3.0 + two_pi, -2.5 + two_pi, -2.0 + two_pi]


def test_density_byte_identical(capsys):
    args = ["density", "--p", "0", "--lambda-min", "0.5", "--lambda-max", "1.5",
            "--lambda-step", "0.5", "--N", "30000"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2
    _, out3, _ = run(args + ["--threads", "3"], capsys)
    assert out3 == out1


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 0.0, "lambda_min": -5.0, "N": 20000}))
    code, out, _ = run(["density", "--config", str(cfg), "--lambda-min", "1.0"],
                       capsys)
    assert code == 0
    assert out.count("\n") == 2


def test_eigs_empty_interval(capsys):
    code, out, _ = run(["eigs", "--p", "0", "--lambda-min", "-10",
                        "--lambda-max", "-0.1", "--N", "20000"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["omega_zeros"] == []
    assert rep["agree"] is True


def test_poly_oscillatory_window(capsys):
    code, out, _ = run(["poly", "--p", "0", "--z", "1.0", "--n0", "10000",
                        "--N", "10050"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,p_n,prediction,residual,envelope"
    assert len(lines) == 52
    for line in lines[1:]:
        n, pn, pred, resid, env = line.split(",")
        assert float(resid) <= 0.05 * float(env)


def _jost_window(tmp_path, N_jost):
    """A config file that sets the Jost window the poly laws solve on."""
    path = tmp_path / "jost.json"
    path.write_text(json.dumps({"N_jost": N_jost}))
    return str(path)


# n_start = ansatz.default_n_start: 8 for Laguerre at 1, and 8 n_* = 2048
# on the whole line at -2 (turning index n_* = (w / tau)^4 = 256)
@pytest.mark.parametrize("model, z, n_start, N_jost", [
    (["--p", "0"], "1.0", 8, 20_000),
    (["--sigma", "1.25", "--beta", "-0.875"], "-2", 2048, 100_000),
])
def test_poly_default_rows_start_at_phase_window(model, z, n_start, N_jost,
                                                 tmp_path, capsys):
    # without --n0 the rows start where the phase sum does
    code, out, err = run(["poly", *model, "--z", z,
                          "--config", _jost_window(tmp_path, N_jost)], capsys)
    assert code == 0, err
    ns = [int(l.split(",")[0]) for l in out.strip().split("\n")[1:]]
    assert ns == list(range(n_start, n_start + 51))


def test_poly_rejects_n0_below_window_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("poly solved before checking --n0")

    monkeypatch.setattr(recurrence, "poly_eval", no_solve)
    monkeypatch.setattr(spectral, "amplitude_phase", no_solve)
    code, _, err = run(["poly", "--p", "0", "--z", "1.0", "--n0", "7"], capsys)
    assert code == 4
    assert "InvalidParameter" in err and "n = 8" in err


def test_poly_regular_point(tmp_path, capsys):
    # off the spectrum P_n follows the growth law; the relative deviation
    # is the law's O(n^-nu) error, about 4e-2 at n = 1000 (Laguerre, z = -1)
    code, out, _ = run(["poly", "--p", "0", "--z", "-1.0", "--n0", "1000",
                        "--N", "1050", "--config", _jost_window(tmp_path, 20_000)],
                       capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,log_abs_p,log_abs_prediction,rel_deviation"
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1000, 1051))
    for n, lp, lpred, dev in rows:
        assert dev < 0.05
        assert abs(lp - lpred) < 0.05
    assert rows[-1][1] > rows[0][1] + 1.0    # growing


def test_jost_decaying_tail(capsys):
    code, out, _ = run(["jost", "--p", "0", "--z", "1+1j", "--N", "3000"],
                       capsys)
    assert code == 0
    lines = out.strip().split("\n")
    logs = [float(l.split(",")[3]) for l in lines[1:]]
    tail = logs[-1000:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_resolvent_json(capsys):
    code, out, _ = run(["resolvent", "--p", "0", "--z", "1+1j", "--n", "0",
                        "--m", "1", "--N", "20000"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"n", "m", "z_re", "z_im", "re", "im"}


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(["classify", "--p", "0", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["tau"] == 0.0


def test_numeric_failure_exit(capsys):
    # z at the spectral threshold -> branch point -> exit 3
    code, _, err = run(["jost", "--p", "0", "--z", "0.0", "--N", "2000"],
                       capsys)
    assert code == 3
    assert "BranchPoint" in err


def test_format_conversion(capsys):
    code, out, _ = run(["density", "--p", "0", "--lambda-min", "1.0",
                        "--N", "30000", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["lambda"] == 1.0
    code, out, _ = run(["classify", "--p", "0", "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("key,value")


def _fresh_python(args, tmp_path):
    src = str(pathlib.Path(critjac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_without_warning(tmp_path):
    # the package does not import cli eagerly, so running it as __main__
    # does not find it in sys.modules already
    proc = _fresh_python(["-W", "error::RuntimeWarning", "-m", "critjac.cli",
                          "classify", "--p", "0"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tau"] == 0.0


def test_cli_reachable_as_package_attribute(tmp_path):
    proc = _fresh_python(["-c", "import critjac; print(critjac.cli.main.__name__)"],
                         tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "main"
