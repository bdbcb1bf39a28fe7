"""Max-plus scalar arithmetic.

The carrier set is the reals together with a zero element that is neutral
for tropical addition (max) and absorbing for tropical multiplication
(ordinary +).  The unit element is 0.0.  Values are immutable and all
operations are pure functions, so they are safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InverseOfZero, ZeroToNonpositivePower

Rational = int | float | Fraction

_NEG_INF = float("-inf")


class TropValue:
    """A max-plus scalar: a finite real or the distinguished zero element.

    The zero element is tagged explicitly (payload ``None``) rather than
    stored as an IEEE -inf, so absorbing behaviour is decided by the
    operations themselves and no -inf/+inf arithmetic can leak in.
    """

    __slots__ = ("_value",)

    def __init__(self, value: float | None):
        if value is not None:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"finite payload required, got {value!r}")
        self._value = value

    @classmethod
    def zero(cls) -> "TropValue":
        return ZERO

    @classmethod
    def of(cls, x: "TropValue | float | int | None") -> "TropValue":
        """Coerce a number, ``None`` (= zero element) or TropValue."""
        if isinstance(x, TropValue):
            return x
        return cls(x)

    @classmethod
    def from_raw(cls, x: float) -> "TropValue":
        """Build from a raw float where -inf encodes the zero element."""
        if x == _NEG_INF:
            return ZERO
        return cls(x)

    @property
    def is_zero(self) -> bool:
        return self._value is None

    @property
    def value(self) -> float:
        """Finite payload; raises for the zero element."""
        if self._value is None:
            raise InverseOfZero("the zero element carries no finite value")
        return self._value

    @property
    def raw(self) -> float:
        """Float bridge for array code: -inf encodes the zero element."""
        return _NEG_INF if self._value is None else self._value

    def isclose(self, other: "TropValue", tol: float = 1e-9) -> bool:
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return abs(self._value - other._value) <= tol

    # -- canonical order (zero element is the least) -----------------------

    def __le__(self, other: "TropValue") -> bool:
        return self.raw <= other.raw

    def __lt__(self, other: "TropValue") -> bool:
        return self.raw < other.raw

    def __ge__(self, other: "TropValue") -> bool:
        return self.raw >= other.raw

    def __gt__(self, other: "TropValue") -> bool:
        return self.raw > other.raw

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropValue):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

    # -- semiring operators -------------------------------------------------

    def __add__(self, other: "TropValue") -> "TropValue":
        return t_add(self, other)

    def __mul__(self, other: "TropValue") -> "TropValue":
        return t_mul(self, other)

    def __pow__(self, e: Rational) -> "TropValue":
        return t_pow(self, e)

    def __repr__(self) -> str:
        if self._value is None:
            return "TropValue(zero)"
        return f"TropValue({self._value!r})"


ZERO = TropValue(None)
UNIT = TropValue(0.0)


def t_add(a: TropValue, b: TropValue) -> TropValue:
    """Tropical addition: the larger of the two in the canonical order."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return a if a._value >= b._value else b


def t_mul(a: TropValue, b: TropValue) -> TropValue:
    """Tropical multiplication: ordinary sum; zero is absorbing."""
    if a.is_zero or b.is_zero:
        return ZERO
    return TropValue(a._value + b._value)


def t_inv(a: TropValue) -> TropValue:
    """Multiplicative inverse (ordinary negation)."""
    if a.is_zero:
        raise InverseOfZero("the zero element has no multiplicative inverse")
    return TropValue(-a._value + 0.0)  # normalise -0.0


def t_pow(a: TropValue, e: Rational) -> TropValue:
    """Raise to a rational power: ordinary scaling of the payload.

    zero ** e is zero for e > 0 and undefined otherwise.
    """
    e = float(e)
    if not math.isfinite(e):
        raise ValueError(f"finite exponent required, got {e!r}")
    if a.is_zero:
        if e <= 0:
            raise ZeroToNonpositivePower(f"zero element cannot be raised to {e!r}")
        return ZERO
    return TropValue(a._value * e)


def t_join(values) -> TropValue:
    """Tropical sum of an iterable (zero element if empty)."""
    acc = ZERO
    for v in values:
        acc = t_add(acc, v)
    return acc
