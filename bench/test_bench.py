"""Tests of the benchmark's own machinery: oracles, inputs, tracer.

Run from the repository root with `python3 -m pytest bench`.  Each
oracle is fed a result that should pass and a perturbed one that must be
counted as failed.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


# -- oracles: unperturbed results pass, perturbed ones fail -------------------


def _laguerre_ab(n=16):
    ns = np.arange(n, dtype=float)
    return ns + 1.0, 2.0 * ns + 1.0


def test_laguerre_weight_is_certified():
    a, b = _laguerre_ab()
    assert oracles.laguerre_weight_defect(a, b) < oracles.WEIGHT_ORTHO_LIMIT
    assert oracles.laguerre_weight_defect(a, b + 0.1) > oracles.WEIGHT_ORTHO_LIMIT


@pytest.mark.parametrize("factor, failed", [(1.0 + 1e-6, 0), (1.05, 1)])
def test_laguerre_density_perturbed_xi(factor, failed):
    lams = [0.5, 1.0, 2.0, 4.0]
    xis = [math.exp(-l) for l in lams]
    xis[2] *= factor
    chk = oracles.check_laguerre_density(lams, xis, 1e-14)
    assert (chk.ops, chk.failed) == (5, failed)


@pytest.mark.parametrize("shift, failed", [(1e-11, 0), (1e-5, 1)])
def test_eigenvalue_perturbed(shift, failed):
    ref = [-0.4577019283635636]
    chk = oracles.check_eigenvalues([ref[0] + shift], ref)
    assert (chk.ops, chk.failed) == (1, failed)


def test_eigenvalue_without_partner_fails_both_ways():
    ref = [-0.5, 0.2]
    assert oracles.check_eigenvalues([-0.5], ref).failed == 1
    chk = oracles.check_eigenvalues([-0.5, 0.2, 0.7], ref)
    assert (chk.ops, chk.failed) == (3, 1)


def test_matrix_eigenvalues_of_a_diagonal_operator():
    eigs = oracles.matrix_eigenvalues(lambda n: 1e-300 * np.ones_like(n),
                                      lambda n: n + 0.5, 0.0, 3.0, start=8)
    assert np.allclose(eigs, [0.5, 1.5, 2.5])


@pytest.mark.parametrize("seed", [0, 60])
def test_matrix_eigenvalues_settle_on_eig_scan_intervals(seed):
    """eig_scan's model (a_n = n, a_0 = 1, b_n = 2n); seed 60's interval
    needs a settling test that allows for the eigensolver's rounding."""
    inp = workloads.make_inputs("eig_scan", seed)
    eigs = oracles.matrix_eigenvalues(lambda n: np.maximum(n, 1.0), lambda n: 2.0 * n,
                                      inp["lo"], inp["hi"])
    assert eigs == pytest.approx([-0.4577019283635636], abs=1e-9)


def _csv(lams, w, kappas, xi_factor=1.0):
    rows = ["lambda,xi,kappa,eta,w"]
    for lam, k in zip(lams, kappas):
        xi = w / (math.pi * k * k) * xi_factor
        rows.append(",".join(format(v, ".17g") for v in (lam, xi, k, 0.25, w)))
    return "\n".join(rows) + "\n"


def _density_case():
    lams = workloads.cli_grid(-2.0, 2.0, 0.1)
    w = math.sqrt(0.5)
    kappas = [1.0 + 0.1 * k for k in range(len(lams))]
    wronskian = {k: 5e-4 for k in (0, 9, 40)}
    return lams, w, kappas, wronskian


def test_density_csv_passes_when_consistent():
    lams, w, kappas, wronskian = _density_case()
    chk = oracles.check_density_csv(_csv(lams, w, kappas), lams, w, kappas, wronskian)
    assert (chk.ops, chk.failed) == (2 * 41 + 3, 0)


def test_density_csv_perturbed_xi_fails():
    lams, w, kappas, wronskian = _density_case()
    chk = oracles.check_density_csv(_csv(lams, w, kappas, 1.05), lams, w, kappas,
                                    wronskian)
    assert chk.failed == 41


def test_density_csv_error_row_fails():
    lams, w, kappas, wronskian = _density_case()
    lines = _csv(lams, w, kappas).splitlines()
    lines[10] = f"{lams[9]:.17g},ERROR:ZeroCrossing,,,"
    chk = oracles.check_density_csv("\n".join(lines) + "\n", lams, w, kappas, wronskian)
    assert chk.failed == 2                   # the row and its kappa
    assert chk.worst == math.inf


@pytest.mark.parametrize("row", [9, 20])     # an oracle-window row and an other row
def test_density_csv_wrong_kappa_fails(row):
    """A consistent row (xi = w / (pi kappa^2)) whose kappa is off."""
    lams, w, kappas, wronskian = _density_case()
    off = list(kappas)
    off[row] *= 1.0 + 1e-8
    chk = oracles.check_density_csv(_csv(lams, w, off), lams, w, kappas, wronskian)
    assert chk.failed == 1


def test_density_csv_wronskian_mismatch_fails():
    lams, w, kappas, wronskian = _density_case()
    bad = dict(wronskian)
    bad[0] = 2e-2
    chk = oracles.check_density_csv(_csv(lams, w, kappas), lams, w, kappas, bad)
    assert chk.failed == 1


def _long_window_case(n=64):
    """Windows on [-1, n] with W[f, g] = 1 exactly and P = -Omega g."""
    rng = np.random.default_rng(1)
    lm_f = -0.1 * np.arange(n + 2.0)
    u_f = np.exp(1j * rng.uniform(0, 2 * np.pi, n + 2))
    f = np.exp(lm_f) * u_f
    a = np.ones(n + 1)
    g = np.zeros(n + 2, dtype=complex)
    g[0] = 0.5
    for k in range(n + 1):                   # W = 1 fixes g_{k+1} from g_k
        g[k + 1] = (1.0 + f[k + 1] * g[k]) / f[k]
    om = 0.3 - 0.4j
    P = -om * g
    return lm_f, u_f, g, P, om, a


@pytest.mark.parametrize("sign, failed", [(1.0, 0), (-1.0, 1)])
def test_long_window_perturbed_sign(sign, failed):
    lm_f, u_f, g, P, om, a = _long_window_case()
    ns = [5, 20, 40]
    k = [n + 1 for n in ns]
    P = P.copy()
    P[k[1]] *= sign
    w_dev = oracles.wronskian_deviation(lm_f, u_f, np.log(np.abs(g)), g / np.abs(g), a,
                                        chunk=7)
    assert w_dev < 1e-9
    chk = oracles.check_long_window(ns, np.log(np.abs(P[k])), P[k] / np.abs(P[k]),
                                    np.log(np.abs(g[k])), g[k] / np.abs(g[k]), om, w_dev)
    assert (chk.ops, chk.failed) == (4, failed)


def test_long_window_wronskian_drift_fails():
    lm_f, u_f, g, P, om, a = _long_window_case()
    g = g.copy()
    g[30:] *= 1.0 + 1e-6
    w_dev = oracles.wronskian_deviation(lm_f, u_f, np.log(np.abs(g)), g / np.abs(g), a)
    assert w_dev > oracles.WRONSKIAN_DEV_LIMIT


def test_nan_and_raise_count_as_failures():
    chk = oracles.Check()
    chk.add(math.nan, 1.0, "nan")
    assert (chk.ops, chk.failed, chk.worst) == (1, 1, math.inf)
    chk.fail_all(3, "raised")
    assert (chk.ops, chk.failed) == (4, 4)
    assert oracles.accuracy_digits(chk.worst) == -oracles.DIGITS_CAP
    assert oracles.accuracy_digits(1e-5) == pytest.approx(5.0)


# -- seeded inputs ------------------------------------------------------------


def test_seed_zero_is_the_paper_grid():
    assert workloads.make_inputs("laguerre_density", 0)["lams"] == [0.5, 1.0, 2.0, 4.0]
    eig = workloads.make_inputs("eig_scan", 0)
    assert (eig["lo"], eig["hi"], eig["N"]) == (-5.0, 0.9, 60_000)
    wl = workloads.make_inputs("whole_line_sweep", 0)
    assert wl["grid_args"] == ["-2", "2", "0.1"]
    lams = workloads.cli_grid(*(float(v) for v in wl["grid_args"]))
    assert [round(lams[k], 12) for k in wl["oracle_index"]] == [-2, -1.1, -0.5, 0.5, 1, 2]
    assert workloads.make_inputs("long_window", 0)["z"] == -1.0


@pytest.mark.parametrize("seed", range(1, 40))
def test_other_seeds_stay_in_range(seed):
    base = [0.5, 1.0, 2.0, 4.0]
    lams = workloads.make_inputs("laguerre_density", seed)["lams"]
    assert lams == workloads.make_inputs("laguerre_density", seed)["lams"]
    steps = [0.5, 0.5, 1.0, 2.0]
    for lam, b, step in zip(lams, base, steps):
        assert 0.5 <= lam <= 4.0 and abs(lam - b) < step / 2
    eig = workloads.make_inputs("eig_scan", seed)
    assert abs(eig["lo"] + 5.0) <= 0.05 and abs(eig["hi"] - 0.9) <= 0.05
    wl = workloads.make_inputs("whole_line_sweep", seed)
    grid = workloads.cli_grid(*(float(v) for v in wl["grid_args"]))
    assert len(grid) == 41
    assert -2.0 <= grid[0] and grid[-1] <= 2.0
    assert max(abs(g - (-2.0 + 0.1 * k)) for k, g in enumerate(grid)) < 0.05
    z = workloads.make_inputs("long_window", seed)["z"]
    assert z < 0.0


# -- tracer -------------------------------------------------------------------


def test_self_time_subtracts_children_per_thread():
    S = tr.Span
    spans = [S(1, "a", 0.0, 10.0, None, 1, 0), S(2, "b", 1.0, 4.0, 1, 1, 0),
             S(3, "c", 2.0, 3.0, 2, 1, 0), S(4, "b", 5.0, 6.0, 1, 1, 0),
             S(5, "b", 0.0, 9.0, None, 2, 0)]
    own = tr.self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 9.0}


def _fake_package():
    """A two-module package whose second module from-imports the first."""
    core = types.ModuleType("fakepkg.core")

    def leaf(n):
        return list(range(n))

    def outer(n):
        return core.leaf(n)

    core.leaf, core.outer = leaf, outer
    user = types.ModuleType("fakepkg.user")
    user.leaf = leaf                          # bound early, like a from-import
    user.TABLE = {"leaf": leaf}
    pkg = types.ModuleType("fakepkg")
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_tracer_patches_every_binding_and_restores(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    original = mods["fakepkg.core"].leaf
    t = tr.Tracer()
    t.install({"core.leaf": ("fakepkg.core", "leaf", lambda a, k, out: len(out)),
               "core.outer": ("fakepkg.core", "outer", None),
               "core.gone": ("fakepkg.core", "deleted_later", None)})
    try:
        mods["fakepkg.core"].outer(3)
        mods["fakepkg.user"].leaf(2)
        mods["fakepkg.user"].TABLE["leaf"](1)
    finally:
        t.uninstall()
    assert t.absent == ["core.gone"]
    names = sorted((s.name, s.size) for s in t.spans)
    assert names == [("core.leaf", 1), ("core.leaf", 2), ("core.leaf", 3), ("core.outer", 0)]
    child = next(s for s in t.spans if s.size == 3)
    parent = next(s for s in t.spans if s.name == "core.outer")
    assert child.parent == parent.sid
    assert mods["fakepkg.user"].leaf is original
    assert mods["fakepkg.user"].TABLE["leaf"] is original


def test_layer_metrics_marks_unused_stages_absent():
    S = tr.Span
    spans = [S(1, "spectral.omega_real", 0.0, 1.0, None, 7, 0),
             S(2, "solutions.omega", 0.1, 0.9, 1, 7, 0),
             S(3, "volterra.solve", 0.2, 0.8, 2, 7, 100),
             S(4, "volterra.sweep", 0.3, 0.4, 3, 7, 100),
             S(5, "volterra.sweep", 0.5, 0.6, 3, 7, 200)]
    metrics, absent = tr.layer_metrics(spans, wall=1.25, untraced_wall=1.0,
                                       main_thread=7, eigenvalues=1)
    assert set(metrics) == set(tr.metric_units())
    assert metrics["volterra.solve.calls"] == 2
    assert metrics["spectral.solves_per_omega"] == 2.0
    assert metrics["spectral.omega_evals_per_eigenvalue"] == 1.0
    assert metrics["trace.coverage"] == pytest.approx(0.8)
    assert metrics["trace.overhead_s"] == pytest.approx(0.25)
    assert "recurrence.poly_eval.calls" in absent and metrics["recurrence.poly_eval.calls"] == 0
    assert "cli.pool.busy_frac" in absent
    assert "volterra.sweep.calls" not in absent


# -- runner -------------------------------------------------------------------


class _FakeWorkload:
    def __init__(self, run_raises=False, check_raises=False):
        self.run_raises, self.check_raises = run_raises, check_raises

    def run(self):
        if self.run_raises:
            raise ValueError("no result")
        return [1.0]

    def check(self, out):
        if self.check_raises:
            raise IndexError("unreadable result")
        chk = oracles.Check()
        chk.add(0.0, 1.0, "ok")
        return chk

    def expected_ops(self):
        return 3

    def eigenvalues(self, out):
        return 0


@pytest.mark.parametrize("run_raises, check_raises, failed",
                         [(False, False, 0), (True, False, 3), (False, True, 3)])
def test_exceptions_count_as_failed_ops(run_raises, check_raises, failed):
    import run
    checks = []
    run.run_once(_FakeWorkload(run_raises, check_raises), checks)
    assert checks[0].failed == failed


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    import run
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.metric_units()
