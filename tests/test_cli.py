import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import critjac
from critjac import cli


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
