import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from critjac import ansatz, coeffs, solutions
from critjac.errors import (
    BranchPoint,
    InvalidParameter,
    OutsideAC,
    LimitCircleRegime,
    NotCritical,
    UnsupportedRegime,
    UnsupportedTauZero,
)


def test_laguerre_values():
    m = coeffs.laguerre_model(0.0)
    assert m.a(3) == pytest.approx(4.0)
    assert m.b(3) == pytest.approx(7.0)
    d = m.declared
    assert (d.sigma, d.alpha, d.beta, d.gamma) == (1.0, 1.0, 0.5, 1.0)
    m1 = coeffs.laguerre_model(1.0)
    assert m1.a(0) == pytest.approx(math.sqrt(2.0))
    assert m1.b(0) == pytest.approx(2.0)  # 2n + p + 1 at n = 0


def test_laguerre_rejects_bad_p():
    with pytest.raises(InvalidParameter):
        coeffs.laguerre_model(-1.0)


def test_power_values():
    m = coeffs.power_model(1.0, 0.0, 0.5, 1.0)
    assert m.a(4) == pytest.approx(4.0)
    assert m.b(4) == pytest.approx(9.0)
    m2 = coeffs.power_model(0.5, 0.0, 0.0, 1.0)
    assert m2.a(100) == pytest.approx(10.0)
    assert m2.b(100) == pytest.approx(20.0)
    m3 = coeffs.power_model(1.25, 0.0, 0.0, -1.0)
    assert m3.a(16) == pytest.approx(32.0)
    assert m3.b(16) == pytest.approx(-64.0)
    assert m3.a(0) == pytest.approx(1.0)
    assert m3.b(0) == pytest.approx(0.0)


def test_power_rejects_regime():
    with pytest.raises(UnsupportedRegime):
        coeffs.power_model(2.0, 0, 0, 1)
    with pytest.raises(LimitCircleRegime):
        coeffs.power_model(1.8, 0, 0, 1)
    with pytest.raises(UnsupportedRegime):
        coeffs.power_model(0.0, 0, 0, 1)


def test_classify_laguerre(laguerre0):
    _, p = laguerre0
    assert p.tau == 0.0
    assert p.rho == 0.25
    assert p.nu == 0.5
    assert p.delta == 2.0
    assert p.L == 1
    assert (p.ac_set.lo, p.ac_set.hi) == (0.0, np.inf)


def test_classify_power_cases():
    p = coeffs.classify(coeffs.power_model(1.25, 0.0, 0.3, 1.0))
    assert p.tau == pytest.approx(1.85)
    assert p.rho == pytest.approx(0.375)
    assert p.ac_set is None

    p2 = coeffs.classify(coeffs.power_model(0.5, 0.0, 0.0, 1.0))
    assert p2.rho == pytest.approx(0.125)
    assert p2.L == 2
    assert p2.p == (Fraction(1, 12),)
    assert (p2.ac_set.lo, p2.ac_set.hi) == (0.0, np.inf)


def test_classify_errors():
    with pytest.raises(NotCritical):
        coeffs.classify(coeffs.CoefficientModel(
            lambda n: n + 1.0, lambda n: n,
            coeffs.AsymptoticDescriptor(1.0, 0.0, 0.0, 0.5), "custom"))
    with pytest.raises(UnsupportedTauZero):
        coeffs.classify(coeffs.power_model(1.25, 0.0, -0.625, 1.0))


def test_sigma_three_halves_note():
    p = coeffs.classify(coeffs.power_model(1.5, 0.0, -1.0, 1.0))
    assert p.tau == pytest.approx(-0.5)
    assert p.rho == pytest.approx(0.5)
    assert p.varsigma == 0.0
    assert p.notes  # uniqueness caveat recorded


def test_reflect_involution(laguerre0):
    m, _ = laguerre0
    r = coeffs.reflect(m)
    assert r.b(2) == pytest.approx(-5.0)
    rr = coeffs.reflect(r)
    ns = np.arange(0, 50)
    assert np.allclose(rr.a_fn(ns.astype(float)), m.a_fn(ns.astype(float)))
    assert np.allclose(rr.b_fn(ns.astype(float)), m.b_fn(ns.astype(float)))
    assert r.declared.gamma == -1.0


def test_reflect_mirrors_ac():
    m = coeffs.power_model(1.0, 0.0, 0.0, 1.0)   # tau = 1, ac = (1, inf)
    p = coeffs.classify(m)
    pr = coeffs.classify(coeffs.reflect(m))
    assert pr.tau == p.tau
    assert (pr.ac_set.lo, pr.ac_set.hi) == (-np.inf, -p.ac_set.lo)


rational_sigma = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(3, 2),
                              max_denominator=40)


@given(rational_sigma,
       st.fractions(min_value=-3, max_value=3, max_denominator=20),
       st.fractions(min_value=-3, max_value=3, max_denominator=20))
def test_exact_identities(sigma, alpha, beta):
    d = coeffs.AsymptoticDescriptor(float(sigma), float(alpha), float(beta), 1.0)
    ex = coeffs.exact_critical_fractions(d)
    # identities hold exactly for the stored (float-induced) rationals
    s_ex = Fraction(float(sigma))
    assert 2 * ex["rho"] + ex["varsigma"] == 1
    assert ex["nu"] == s_ex - 2 * ex["rho"]
    L = ex["L"]
    assert (L + Fraction(1, 2)) * s_ex > 1
    assert L == 1 or (L - Fraction(1, 2)) * s_ex <= 1
    assert ex["delta"] - ex["nu"] > 1



@given(st.sampled_from([0.5, 0.75, 1.0, 1.25, 1.5]),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.sampled_from([1.0, -1.0]),
       st.floats(-8.0, 8.0), st.one_of(st.none(), st.floats(-1e-2, 1e-2)))
def test_regime_table_agrees_across_modules(sigma, alpha, beta, gamma, lam, nudge):
    # ac_set, the side-tag and branch-point rules of phase_context, kappa_phase
    # and limit_wronskian all read c(w); they must agree at every point, at
    # and next to the a.c. endpoints too (a nudge puts lam there)
    try:
        p = coeffs.classify(coeffs.power_model(sigma, alpha, beta, gamma))
    except UnsupportedTauZero:
        return
    ac = p.ac_set
    if nudge is not None and p.thresholds():
        lam = p.thresholds()[0] + nudge
    if lam in p.thresholds():
        for zp in (ansatz.interior(lam), ansatz.at_plus(lam), ansatz.at_minus(lam)):
            with pytest.raises(BranchPoint):
                ansatz.phase_context(zp, p)
        return
    if ac is not None and ac.contains(lam):
        with pytest.raises(InvalidParameter, match="side tag"):
            ansatz.phase_context(ansatz.interior(lam), p)
        kappa = solutions.kappa_phase(ansatz.at_plus(lam), p)
        assert solutions.limit_wronskian(lam, p) == abs(kappa)
    else:
        try:
            ansatz.phase_context(ansatz.interior(lam), p)
        except InvalidParameter as exc:
            # no side tag; only a sign change of t_n that no window reaches
            assert "beyond n = 1e308" in str(exc)
        with pytest.raises(OutsideAC):
            solutions.limit_wronskian(lam, p)


def test_descriptor_deviation_stable(laguerre0, laguerre1):
    # p = 0 is exactly linear (a_n = n + 1): the scaled deviation is pure
    # rounding noise and must stay tiny over [1e2, 1e6]
    dev0 = coeffs.descriptor_deviation(laguerre0[0], np.logspace(2, 6, 30))
    assert np.all(dev0 < 1e-3)
    # p = 1 has a genuine second-order term: C ~ 1/8, stable where the
    # cancellation is still above the rounding floor
    ns = np.logspace(2, 4, 20)
    dev1 = coeffs.descriptor_deviation(laguerre1[0], ns)
    assert np.all((0.05 < dev1) & (dev1 < 0.25))
    assert dev1.max() / dev1.min() < 2.0


def test_model_json_roundtrip(tmp_path):
    spec = {"kind": "power", "sigma": 1.25, "alpha": 0.0, "beta": 0.3, "gamma": 1.0}
    m = coeffs.model_from_dict(spec)
    assert m.a(4) == pytest.approx(4.0 ** 1.25)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    m2 = coeffs.load_model(str(path))
    assert m2.b(7) == pytest.approx(m.b(7))

    table = {"kind": "table", "a": [1.0, 1.5, 2.2], "b": [0.0, 1.0, 2.0],
             "sigma": 0.5, "alpha": 0.0, "beta": 0.0, "gamma": 1.0}
    mt = coeffs.model_from_dict(table)
    assert mt.a(2) == pytest.approx(2.2)
    with pytest.raises(InvalidParameter):
        mt.a(3)
    with pytest.raises(InvalidParameter):
        coeffs.model_from_dict({"kind": "mystery"})


@pytest.mark.parametrize("column, bad", [("a", math.nan), ("a", math.inf),
                                         ("b", math.nan), ("b", -math.inf)])
def test_table_model_rejects_non_finite_entries(column, bad):
    entries = {"a": [1.0, 1.5, 2.2], "b": [0.0, 1.0, 2.0]}
    entries[column][1] = bad
    with pytest.raises(InvalidParameter, match="finite"):
        coeffs.table_model(entries["a"], entries["b"], 0.5, 0.0, 0.0, 1.0)
