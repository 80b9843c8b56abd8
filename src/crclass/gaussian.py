"""Exact Gaussian rational numbers, the coefficient field Q(i).

Every number is a triple of arbitrary-precision ints (a, b, d) meaning
(a + b*I)/d, always in the canonical form d > 0 and gcd(a, b, d) = 1, so
zero is (0, 0, 1). Each value has exactly one canonical triple, which
makes equality and hashing those of the triple. An operation costs a few
integer products plus at most one multi-argument gcd, and the gcd is
skipped when the denominator is 1. There is no floating-point path:
classification verdicts hinge on exact zero tests, so all arithmetic is
field arithmetic in Q(i).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

RationalLike = int | Fraction

_tuple_new = tuple.__new__


class GaussianRational(tuple):
    """An element (a + b*I)/d of Q(i); immutable and hashable.

    The object is the canonical triple (a, b, d) itself, so polynomial
    kernels unpack it directly, and equality and hashing are the tuple's.
    GaussianRational(re, im) builds one from ints or Fractions; .re and
    .im read it back as Fractions. Both operands of an arithmetic operator
    must be GaussianRational: the other operand is unpacked as a triple.
    """

    __slots__ = ()

    def __new__(cls, re: RationalLike, im: RationalLike = 0) -> GaussianRational:
        if type(re) is int and type(im) is int:
            return _tuple_new(cls, (re, im, 1))
        re = Fraction(re)
        im = Fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        return _tuple_new(cls, (re.numerator * (d // dr), im.numerator * (d // di), d))

    def __getnewargs__(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self[1], self[2])

    def __add__(self, other: GaussianRational) -> GaussianRational:
        a, b, d = self
        c, e, f = other
        if d == f:
            return reduced(a + c, b + e, d)
        return reduced(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        a, b, d = self
        c, e, f = other
        if d == f:
            return reduced(a - c, b - e, d)
        return reduced(a * f - c * d, b * f - e * d, d * f)

    def __mul__(self, other: GaussianRational) -> GaussianRational:
        a, b, d = self
        c, e, f = other
        return reduced(a * c - b * e, a * e + b * c, d * f)

    def __rmul__(self, other: object) -> GaussianRational:
        # Without this, int * GaussianRational would be tuple repetition.
        raise TypeError(f"cannot multiply {type(other).__name__} by GaussianRational")

    def __truediv__(self, other: GaussianRational) -> GaussianRational:
        a, b, d = self
        c, e, f = other
        n2 = c * c + e * e
        if n2 == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a + bI)/d * f/(c + eI) = (a + bI)(c - eI) f / (d (c^2 + e^2))
        return reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n2)

    def __neg__(self) -> GaussianRational:
        a, b, d = self
        return _tuple_new(GaussianRational, (-a, -b, d))

    def conj(self) -> GaussianRational:
        """Complex conjugate; an involutive field automorphism."""
        a, b, d = self
        return _tuple_new(GaussianRational, (a, -b, d))

    def is_zero(self) -> bool:
        return self[0] == 0 and self[1] == 0

    def is_one(self) -> bool:
        return self[0] == 1 and self[1] == 0 and self[2] == 1

    def is_real(self) -> bool:
        return self[1] == 0

    def inverse(self) -> GaussianRational:
        return GR_ONE / self

    def __str__(self) -> str:
        # Renders in the expression grammar: "I" binds like a variable,
        # "*" and "/" are left-associative, so 3/4*I means (3/4)*I. The
        # parts print as Fractions would: a/d in lowest terms.
        a, b, d = self
        if b == 0:
            return _ratio_text(a, d)
        if a == 0:
            # gcd(a, b, d) = 1 makes b = +-d mean d = 1
            if b == d:
                return "I"
            if b == -d:
                return "-I"
            return f"{_ratio_text(b, d)}*I"
        re = _ratio_text(a, d)
        if b > 0:
            return f"{re} + I" if b == d else f"{re} + {_ratio_text(b, d)}*I"
        return f"{re} - I" if b == -d else f"{re} - {_ratio_text(-b, d)}*I"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _ratio_text(p: int, d: int) -> str:
    """p/d in lowest terms, as str(Fraction(p, d)) writes it; d > 0."""
    if d != 1:
        g = gcd(p, d)
        p, d = p // g, d // g
    try:
        return str(p) if d == 1 else f"{p}/{d}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return _long_int_text(p) if d == 1 else f"{_long_int_text(p)}/{_long_int_text(d)}"


# sys.set_int_max_str_digits accepts no limit below 640 digits
_CHUNK_DIGITS = 640
_CHUNK = 10**_CHUNK_DIGITS


def _long_int_text(k: int) -> str:
    """str(k) for an int of any length, converted 640 digits at a time."""
    q, chunks = abs(k), []
    while q:
        q, r = divmod(q, _CHUNK)
        chunks.append(str(r).zfill(_CHUNK_DIGITS))
    return "-" * (k < 0) + ("".join(reversed(chunks)).lstrip("0") or "0")


def reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*I)/d in canonical form; d must be positive."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _tuple_new(GaussianRational, (a, b, d))


def gr(re: RationalLike, im: RationalLike = 0) -> GaussianRational:
    """Convenience constructor from ints or Fractions."""
    return GaussianRational(re, im)


GR_ZERO = gr(0)
GR_ONE = gr(1)
GR_I = gr(0, 1)
