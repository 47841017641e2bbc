"""Overflow-safe complex scalars stored as (log-magnitude, unit phase).

Sequences such as Jost solutions or orthonormal polynomials off the
spectrum grow or decay like exp(c * n^power) and leave the double range
long before n reaches 10^6.  A LogComplex keeps ln|v| as a float and the
phase as a unit complex number, so products only add logs and sums are
formed in the frame of the larger operand.  Zero is encoded as
log-magnitude -inf.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogComplex:
    """A complex value v = exp(logmag) * unit with |unit| = 1."""

    logmag: float
    unit: complex

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_complex(v: complex) -> "LogComplex":
        v = complex(v)
        r = abs(v)
        if r == 0.0:
            return LogComplex(_NEG_INF, 1.0 + 0.0j)
        return LogComplex(math.log(r), v / r)

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(_NEG_INF, 1.0 + 0.0j)

    @staticmethod
    def one() -> "LogComplex":
        return LogComplex(0.0, 1.0 + 0.0j)

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.logmag == _NEG_INF

    def to_complex(self) -> complex:
        """Convert back to a plain complex; overflows to inf beyond ~1e308."""
        if self.is_zero:
            return 0.0 + 0.0j
        try:
            r = math.exp(self.logmag)
        except OverflowError:
            r = float("inf")
        return r * self.unit

    def phase(self) -> float:
        return cmath.phase(self.unit)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, LogComplex):
            if self.is_zero or other.is_zero:
                return LogComplex.zero()
            u = self.unit * other.unit
            return LogComplex(self.logmag + other.logmag, u / abs(u))
        return self * LogComplex.from_complex(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, LogComplex):
            other = LogComplex.from_complex(other)
        if other.is_zero:
            raise ZeroDivisionError("LogComplex division by zero")
        if self.is_zero:
            return LogComplex.zero()
        u = self.unit / other.unit
        return LogComplex(self.logmag - other.logmag, u / abs(u))

    def __add__(self, other):
        if not isinstance(other, LogComplex):
            other = LogComplex.from_complex(other)
        # Work in the frame of the larger magnitude; the smaller operand
        # enters through exp(delta) <= 1, which cannot overflow.
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        big, small = (self, other) if self.logmag >= other.logmag else (other, self)
        s = big.unit + math.exp(small.logmag - big.logmag) * small.unit
        r = abs(s)
        if r == 0.0:
            return LogComplex.zero()
        return LogComplex(big.logmag + math.log(r), s / r)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LogComplex):
            other = LogComplex.from_complex(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LogComplex(self.logmag, -self.unit)

    def conjugate(self) -> "LogComplex":
        return LogComplex(self.logmag, self.unit.conjugate())

    def __abs__(self) -> float:
        if self.is_zero:
            return 0.0
        try:
            return math.exp(self.logmag)
        except OverflowError:
            return float("inf")

    def __repr__(self):
        return f"LogComplex(logmag={self.logmag!r}, unit={self.unit!r})"
