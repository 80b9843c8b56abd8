"""Reduced rational expressions, the working function field Q(i)(z, zb, u).

A RationalExpr is a fraction of MultiPoly values kept in the canonical
form: gcd(num, den) = 1, den monic under the graded-lex order, and the
zero expression is exactly 0/1. Structural equality therefore coincides
with equality of rational functions, which is what every identical-
vanishing test in the classifier relies on.

Alongside the fraction each expression carries a small tuple of
denominator atoms: the small polynomials (frame denominators and their
conjugates) whose powers make up almost every denominator that arithmetic
produces. Cancellation tries exact division by these atoms before falling
back to a general gcd, which keeps the gcd work on the large products that
Levi determinants generate from blowing up. The hints never affect
equality, hashing, or the reduced-form invariant; with an empty tuple the
arithmetic degenerates to the plain gcd path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gaussian import GaussianRational, gr
from .poly import ExactDivisionError, MultiPoly, VarSpace, poly_gcd

Hints = tuple[MultiPoly, ...]

_HINT_MAX_TERMS = 12
_HINT_CAP = 8


class PoleError(ArithmeticError):
    """Evaluation hit a zero denominator: the point is on the singular
    locus of this particular expression."""


def _merge_hints(base: Hints, *extra: MultiPoly | None) -> Hints:
    out = list(base)
    for cand in extra:
        if cand is None or cand.is_constant():
            continue
        if len(cand.terms) > _HINT_MAX_TERMS:
            continue
        cand = cand.monic()
        if cand not in out:
            out.append(cand)
    return tuple(out[:_HINT_CAP])


def _join(a: Hints, b: Hints) -> Hints:
    if not b:
        return a
    if not a:
        return b
    out = list(a)
    for cand in b:
        if cand not in out:
            out.append(cand)
    return tuple(out[:_HINT_CAP])


def _cancel(p: MultiPoly, q: MultiPoly, hints: Hints) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Divide out gcd(p, q); returns (gcd, p/gcd, q/gcd).

    Hinted atoms are stripped by trial division first, so the closing
    general gcd usually faces a certified-coprime pair.
    """
    acc: MultiPoly | None = None
    for f in hints:
        while True:
            try:
                q2 = q.divexact(f)
                p2 = p.divexact(f)
            except ExactDivisionError:
                break
            p, q = p2, q2
            acc = f if acc is None else acc * f
    g = poly_gcd(p, q)
    if not g.is_one():
        p = p.divexact(g)
        q = q.divexact(g)
        acc = g if acc is None else acc * g
    if acc is None:
        acc = MultiPoly.one(p.space)
    return acc, p, q


@dataclass(frozen=True, slots=True)
class RationalExpr:
    num: MultiPoly
    den: MultiPoly
    hints: Hints = field(default=(), compare=False, repr=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(
        num: MultiPoly,
        den: MultiPoly,
        *,
        reduced: bool = False,
        hints: Hints = (),
    ) -> RationalExpr:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational expression")
        if num.is_zero():
            return RationalExpr(num, MultiPoly.one(num.space))
        if not reduced:
            _, num, den = _cancel(num, den, hints)
        lc = den.leading_coeff()
        if not lc.is_one():
            inv = lc.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        return RationalExpr(num, den, _merge_hints(hints, den))

    @staticmethod
    def from_poly(p: MultiPoly) -> RationalExpr:
        return RationalExpr(p, MultiPoly.one(p.space))

    @staticmethod
    def zero(space: VarSpace) -> RationalExpr:
        return RationalExpr.from_poly(MultiPoly.zero(space))

    @staticmethod
    def one(space: VarSpace) -> RationalExpr:
        return RationalExpr.from_poly(MultiPoly.one(space))

    @staticmethod
    def const(space: VarSpace, value: GaussianRational) -> RationalExpr:
        return RationalExpr.from_poly(MultiPoly.const(space, value))

    @staticmethod
    def variable(space: VarSpace, slot: int) -> RationalExpr:
        return RationalExpr.from_poly(MultiPoly.variable(space, slot))

    @property
    def space(self) -> VarSpace:
        return self.num.space

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def as_constant(self) -> GaussianRational:
        return self.num.as_constant() / self.den.as_constant()

    # -- field arithmetic (Henrici-style partial reductions) ----------------

    def __add__(self, other: RationalExpr) -> RationalExpr:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        hints = _join(self.hints, other.hints)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RationalExpr.make(a + c, b, hints=hints)
        g, b1, d1 = _cancel(b, d, hints)
        if g.is_one():
            return RationalExpr.make(a * d + c * b, b * d, reduced=True, hints=hints)
        num = a * d1 + c * b1
        if num.is_zero():
            return RationalExpr.zero(self.space)
        h, num, g = _cancel(num, g, hints)
        return RationalExpr.make(num, b1 * d1 * g, reduced=True, hints=hints)

    def __sub__(self, other: RationalExpr) -> RationalExpr:
        return self + (-other)

    def __neg__(self) -> RationalExpr:
        return RationalExpr(-self.num, self.den, self.hints)

    def __mul__(self, other: RationalExpr) -> RationalExpr:
        if self.is_zero() or other.is_zero():
            return RationalExpr.zero(self.space)
        hints = _join(self.hints, other.hints)
        a, b, c, d = self.num, self.den, other.num, other.den
        _, a, d = _cancel(a, d, hints)
        _, c, b = _cancel(c, b, hints)
        return RationalExpr.make(a * c, b * d, reduced=True, hints=hints)

    def __truediv__(self, other: RationalExpr) -> RationalExpr:
        return self * other.inverse()

    def inverse(self) -> RationalExpr:
        if self.is_zero():
            raise ZeroDivisionError("division by the zero expression")
        return RationalExpr.make(self.den, self.num, reduced=True, hints=self.hints)

    def scale(self, factor: GaussianRational) -> RationalExpr:
        return RationalExpr(self.num.scale(factor), self.den, self.hints)

    def pow(self, e: int) -> RationalExpr:
        out = RationalExpr.one(self.space)
        for _ in range(e):
            out = out * self
        return out

    # -- calculus ------------------------------------------------------------

    def diff(self, slot: int) -> RationalExpr:
        dn = self.num.diff(slot)
        if self.den.is_one():
            return RationalExpr.from_poly(dn)
        dd = self.den.diff(slot)
        if dd.is_zero():
            return RationalExpr.make(dn, self.den, hints=self.hints)
        return RationalExpr.make(
            dn * self.den - self.num * dd,
            self.den * self.den,
            hints=self.hints,
        )

    def conj(self) -> RationalExpr:
        # conj is a ring automorphism composed with the z <-> zb swap, so
        # reducedness survives; only the monic normalization can change.
        return RationalExpr.make(
            self.num.conj(),
            self.den.conj(),
            reduced=True,
            hints=tuple(f.conj().monic() for f in self.hints),
        )

    def eval(self, values: tuple[GaussianRational, ...]) -> GaussianRational:
        dv = self.den.eval(values)
        if dv.is_zero():
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.eval(values) / dv

    def __str__(self) -> str:
        from .parser import expr_to_text

        return expr_to_text(self)


def re_int(space: VarSpace, value: int) -> RationalExpr:
    return RationalExpr.const(space, gr(value))
