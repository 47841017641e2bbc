import cmath
import math

import pytest
from hypothesis import example, given, strategies as st

from critjac.logcomplex import LogComplex

finite = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False)


def close(a: complex, b: complex, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@given(finite, finite)
def test_product_matches_complex(a, b):
    lc = LogComplex.from_complex(a) * LogComplex.from_complex(b)
    assert close(lc.to_complex(), a * b)


@given(finite, finite)
@example(771455 + 0j, -771460 + 0j)
def test_sum_matches_complex(a, b):
    # each operand already carries about eps |ln|v|| |v| of rounding in
    # the log-magnitude format, so the error is bounded against the
    # operands, not against a cancelled sum
    lc = LogComplex.from_complex(a) + LogComplex.from_complex(b)
    assert abs(lc.to_complex() - (a + b)) <= 1e-12 * max(1.0, abs(a), abs(b))


@given(finite)
def test_roundtrip_and_conjugate(a):
    lc = LogComplex.from_complex(a)
    assert close(lc.to_complex(), a)
    assert close(lc.conjugate().to_complex(), a.conjugate())
    assert abs(abs(lc.unit) - 1.0) < 1e-12


def test_extreme_magnitudes():
    big = LogComplex(5000.0, cmath.exp(0.3j))
    small = LogComplex(-5000.0, 1.0 + 0j)
    prod = big * small
    assert math.isclose(prod.logmag, 0.0, abs_tol=1e-12)
    # adding a negligible term leaves the big one unchanged
    s = big + small
    assert math.isclose(s.logmag, 5000.0, abs_tol=1e-12)
    assert big.to_complex() == complex(float("inf"), float("inf")) or abs(
        big.to_complex()) == float("inf")


def test_zero_encoding():
    z = LogComplex.zero()
    assert z.is_zero and z.to_complex() == 0
    assert (z + LogComplex.one()).to_complex() == 1
    assert (z * LogComplex.one()).is_zero
    with pytest.raises(ZeroDivisionError):
        LogComplex.one() / z


def test_subtraction_cancellation():
    a = LogComplex.from_complex(1.0 + 1.0j)
    d = a - a
    assert d.is_zero or d.logmag < a.logmag - 30
