"""Rational expressions, the working function field Q(i)(z, zb, u).

A RationalExpr is num / den where den is a product of powers of atoms:
monic, nonconstant polynomials that are pairwise coprime, a gcd-free
basis (Bernstein, "Factoring into coprimes in essentially linear time",
J. Algorithms 2005). `atoms` holds the (atom, exponent) pairs and `den`
their expanded product, so den is monic.

Arithmetic does not cancel. A sum raises both sides to the atom-wise
larger exponents, a product adds exponents, and the quotient rule raises
by one the exponent of each atom that depends on the slot; none of them
takes a gcd or tries a division. The basis is refined by gcd only where
new denominators come in: when two expressions with different atoms
meet, and at an explicit division.

The canonical form, gcd(num, den) = 1 with den monic, is computed only
where the value must be exact or shows: `reduce`, which equality,
hashing, printing and the explicit divisions go through. It divides the
numerator by the gcd with each atom, splitting an atom when the gcd is a
proper factor. "Identically zero" needs no reduction: it is num = 0.

An atom of degree 1 in some variable, with coprime coefficients there,
is prime (`poly.is_linear_prime`, decided once per atom). For a prime
atom, trial division settles the gcd, and two distinct prime atoms are
coprime without one. A quotient of two expressions on the same
atoms with the same exponents is num_a / num_b, so only the numerators
meet in a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .gaussian import GaussianRational, gr
from .poly import ExactDivisionError, MultiPoly, VarSpace, is_linear_prime, may_divide, poly_gcd

Atoms = tuple[tuple[MultiPoly, int], ...]


class PoleError(ArithmeticError):
    """Evaluation hit a zero denominator: the point is on the singular
    locus of this particular expression."""


# -- the coprime basis ----------------------------------------------------------


def _atom_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """gcd of two distinct monic atoms; two primes need none."""
    if is_linear_prime(p) and is_linear_prime(q):
        return MultiPoly.one(p.space)
    return poly_gcd(p, q)


def _coprime_base(polys: Sequence[MultiPoly]) -> tuple[list[MultiPoly], list[dict[int, int]]]:
    """A gcd-free basis of monic nonconstant polys, and each input on it.

    Returns (basis, facts) with polys[i] = prod basis[k]^facts[i][k]. Two
    members with a nontrivial gcd g are replaced by g and their cofactors
    until every pair is coprime; each replacement lowers the total degree,
    so the loop ends.
    """
    basis: list[MultiPoly] = []
    split: dict[MultiPoly, tuple[MultiPoly, ...]] = {}
    work = list(polys)
    while work:
        p = work.pop()
        if p in split or p in basis:
            continue
        for i, q in enumerate(basis):
            g = _atom_gcd(p, q)
            if g.is_one():
                continue
            del basis[i]
            for x in (p, q):
                if x != g:
                    rest = x.divexact(g)
                    split[x] = (g, rest) if not rest.is_constant() else (g,)
                    work.extend(split[x])
            work.append(g)
            break
        else:
            basis.append(p)
    index = {b: k for k, b in enumerate(basis)}
    memo: dict[MultiPoly, dict[int, int]] = {}

    def expand(p: MultiPoly) -> dict[int, int]:
        hit = memo.get(p)
        if hit is None:
            if p in index:
                hit = {index[p]: 1}
            else:
                hit = {}
                for part in split[p]:
                    for k, e in expand(part).items():
                        hit[k] = hit.get(k, 0) + e
            memo[p] = hit
        return hit

    return basis, [expand(p) for p in polys]


def _on_common_basis(a: Atoms, b: Atoms) -> tuple[list[MultiPoly], list[int], list[int]]:
    """One coprime basis for the atoms of a and b, and both exponent lists on it.

    Atoms found on both sides are shared; the others are coprime to one
    another unless a gcd says otherwise, and only then is the basis refined.
    """
    basis = [p for p, _ in a]
    ea = [e for _, e in a]
    eb = [0] * len(basis)
    extra: list[tuple[MultiPoly, int]] = []
    for q, f in b:
        for i, p in enumerate(basis):
            if p is q or p == q:
                eb[i] = f
                break
        else:
            extra.append((q, f))
    if not extra:
        return basis, ea, eb
    only_a = [p for p, e in zip(basis, eb) if not e]
    if all(_atom_gcd(p, q).is_one() for p in only_a for q, _ in extra):
        return basis + [q for q, _ in extra], ea + [0] * len(extra), eb + [f for _, f in extra]
    polys = basis + [q for q, _ in extra]
    new_basis, facts = _coprime_base(polys)
    out_a = [0] * len(new_basis)
    out_b = [0] * len(new_basis)
    for fact, e, f in zip(facts, ea + [0] * len(extra), eb + [f for _, f in extra]):
        for k, m in fact.items():
            out_a[k] += m * e
            out_b[k] += m * f
    return new_basis, out_a, out_b


def _power_product(basis: Sequence[MultiPoly], exps: Sequence[int], space: VarSpace) -> MultiPoly:
    out: MultiPoly | None = None
    for p, e in zip(basis, exps):
        for _ in range(e):
            out = p if out is None else out * p
    return MultiPoly.one(space) if out is None else out


def _times(p: MultiPoly, cofactor: MultiPoly) -> MultiPoly:
    return p if cofactor.is_one() else p * cofactor


def _atoms(basis: Sequence[MultiPoly], exps: Sequence[int]) -> Atoms:
    return tuple((p, e) for p, e in zip(basis, exps) if e)


# One zero and one unit expression per variable space.
_ZEROS: dict[VarSpace, RationalExpr] = {}
_ONES: dict[VarSpace, RationalExpr] = {}


@dataclass(frozen=True, slots=True, eq=False)
class RationalExpr:
    num: MultiPoly
    den: MultiPoly
    atoms: Atoms = ()
    # True when gcd(num, den) = 1; then this is the canonical form
    reduced: bool = field(default=False, repr=False)
    _canonical: RationalExpr | None = field(default=None, init=False, repr=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(num: MultiPoly, den: MultiPoly) -> RationalExpr:
        """The canonical form of num / den."""
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational expression")
        if num.is_zero():
            return RationalExpr.zero(num.space)
        inv = den.leading_coeff().inverse()
        num = num.scale(inv)
        if den.is_constant():
            return RationalExpr(num, MultiPoly.one(num.space), (), True)
        den = den.scale(inv)
        return RationalExpr(num, den, ((den, 1),)).reduce()

    @staticmethod
    def from_poly(p: MultiPoly) -> RationalExpr:
        return RationalExpr(p, MultiPoly.one(p.space), (), True)

    @staticmethod
    def zero(space: VarSpace) -> RationalExpr:
        z = _ZEROS.get(space)
        if z is None:
            z = _ZEROS[space] = RationalExpr.from_poly(MultiPoly.zero(space))
        return z

    @staticmethod
    def one(space: VarSpace) -> RationalExpr:
        u = _ONES.get(space)
        if u is None:
            u = _ONES[space] = RationalExpr.from_poly(MultiPoly.one(space))
        return u

    @staticmethod
    def const(space: VarSpace, value: GaussianRational) -> RationalExpr:
        return RationalExpr.from_poly(MultiPoly.const(space, value))

    @staticmethod
    def variable(space: VarSpace, slot: int) -> RationalExpr:
        return RationalExpr.from_poly(MultiPoly.variable(space, slot))

    @property
    def space(self) -> VarSpace:
        return self.num.space

    # -- the canonical form --------------------------------------------------

    def reduce(self) -> RationalExpr:
        """The same value with gcd(num, den) = 1 (den stays monic)."""
        if self.reduced or not self.atoms:
            return self
        if self._canonical is not None:
            return self._canonical
        num = self.num
        kept: list[tuple[MultiPoly, int]] = []
        for atom, exp in self.atoms:
            work = [(atom, exp)]
            while work:
                p, e = work.pop()
                while e and may_divide(num, p):
                    try:
                        num = num.divexact(p)
                    except ExactDivisionError:
                        break
                    e -= 1
                if not e:
                    continue
                # a prime p that does not divide num is coprime to it
                if is_linear_prime(p) or (g := poly_gcd(num, p)).is_one():
                    kept.append((p, e))
                    continue
                # p does not divide num but shares g with it: cancel piece
                # by piece on a coprime basis of g and p / g
                parts, facts = _coprime_base([g, p.divexact(g)])
                mult = [0] * len(parts)
                for fact in facts:
                    for k, m in fact.items():
                        mult[k] += m
                work.extend((q, m * e) for q, m in zip(parts, mult))
        if len(kept) == len(self.atoms) and num is self.num:
            out = RationalExpr(num, self.den, self.atoms, True)
        else:
            den = _power_product([p for p, _ in kept], [e for _, e in kept], self.space)
            out = RationalExpr(num, den, tuple(kept), True)
        object.__setattr__(self, "_canonical", out)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalExpr):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        a, b = self.reduce(), other.reduce()
        return a.num == b.num and a.den == b.den

    def __hash__(self) -> int:
        r = self.reduce()
        return hash((r.num, r.den))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_constant(self) -> bool:
        if not self.atoms:
            return self.num.is_constant()
        num, den = self.num, self.den
        return len(num.terms) == len(den.terms) and num == den.scale(num.leading_coeff())

    def as_constant(self) -> GaussianRational:
        if not self.atoms:
            return self.num.as_constant()
        if not self.is_constant():
            raise ValueError("rational expression is not constant")
        return self.num.leading_coeff()

    # -- field arithmetic ------------------------------------------------------

    def __add__(self, other: RationalExpr) -> RationalExpr:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = self.atoms, other.atoms
        if a is b or a == b:
            num, den, atoms = self.num + other.num, self.den, a
        else:
            basis, ea, eb = _on_common_basis(a, b)
            top = [max(x, y) for x, y in zip(ea, eb)]
            space = self.space
            ca = _power_product(basis, [t - x for t, x in zip(top, ea)], space)
            cb = _power_product(basis, [t - y for t, y in zip(top, eb)], space)
            num = _times(self.num, ca) + _times(other.num, cb)
            den = other.den if cb.is_one() else _times(self.den, ca)
            atoms = _atoms(basis, top)
        if num.is_zero():
            return RationalExpr.zero(self.space)
        return RationalExpr(num, den, atoms)

    def __sub__(self, other: RationalExpr) -> RationalExpr:
        return self + (-other)

    def __neg__(self) -> RationalExpr:
        return RationalExpr(-self.num, self.den, self.atoms, self.reduced)

    def __mul__(self, other: RationalExpr) -> RationalExpr:
        if self.is_zero() or other.is_zero():
            return RationalExpr.zero(self.space)
        num = self.num * other.num
        if not other.atoms:
            return RationalExpr(num, self.den, self.atoms)
        if not self.atoms:
            return RationalExpr(num, other.den, other.atoms)
        basis, ea, eb = _on_common_basis(self.atoms, other.atoms)
        atoms = _atoms(basis, [x + y for x, y in zip(ea, eb)])
        return RationalExpr(num, self.den * other.den, atoms)

    def __truediv__(self, other: RationalExpr) -> RationalExpr:
        # On the same atoms and exponents the denominators cancel.
        if self.atoms == other.atoms:
            return RationalExpr.make(self.num, other.num)
        return (self * other.inverse()).reduce()

    def inverse(self) -> RationalExpr:
        """1 / self in canonical form."""
        if self.is_zero():
            raise ZeroDivisionError("division by the zero expression")
        r = self.reduce()
        inv = r.num.leading_coeff().inverse()
        num = r.den.scale(inv)
        if r.num.is_constant():
            return RationalExpr(num, MultiPoly.one(self.space), (), True)
        den = r.num.scale(inv)
        return RationalExpr(num, den, ((den, 1),), True)

    def scale(self, factor: GaussianRational) -> RationalExpr:
        if factor.is_zero():
            return RationalExpr.zero(self.space)
        return RationalExpr(self.num.scale(factor), self.den, self.atoms, self.reduced)

    def pow(self, e: int) -> RationalExpr:
        out = RationalExpr.one(self.space)
        for _ in range(e):
            out = out * self
        return out

    # -- calculus ------------------------------------------------------------

    def diff(self, slot: int) -> RationalExpr:
        """Quotient rule on the atoms: d/dx (N / prod a^e) is
        (N' P - N sum_k e_k a_k' P / a_k) / (den P), P the product of the
        atoms that depend on x."""
        dn = self.num.diff(slot)
        moving = []
        for k, (atom, e) in enumerate(self.atoms):
            da = atom.diff(slot)
            if not da.is_zero():
                moving.append((k, da.scale(gr(e))))
        if not moving:
            if dn.is_zero():
                return RationalExpr.zero(self.space)
            return RationalExpr(dn, self.den, self.atoms)
        atoms = list(self.atoms)
        prod = inner = None
        for k, d in moving:
            atom, e = atoms[k]
            atoms[k] = (atom, e + 1)
            # inner is d/dx of prod over the moving atoms, exponents as weights
            if prod is None:
                prod, inner = atom, d
            else:
                inner = inner * atom + prod * d
                prod = prod * atom
        num = dn * prod - self.num * inner
        if num.is_zero():
            return RationalExpr.zero(self.space)
        return RationalExpr(num, self.den * prod, tuple(atoms))

    def conj(self) -> RationalExpr:
        # conj is a ring automorphism composed with the z <-> zb swap: the
        # atoms stay pairwise coprime and reducedness survives; only the
        # leading coefficients need making monic again.
        num = self.num.conj()
        if not self.atoms:
            return RationalExpr(num, self.den, (), self.reduced)
        den = self.den.conj()
        inv = den.leading_coeff().inverse()
        atoms = tuple((a.conj().monic(), e) for a, e in self.atoms)
        return RationalExpr(num.scale(inv), den.scale(inv), atoms, self.reduced)

    def eval(self, values: tuple[GaussianRational, ...]) -> GaussianRational:
        dv = self.den.eval(values)
        if dv.is_zero():
            r = self.reduce()
            if r.den is not self.den:
                return r.eval(values)
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.eval(values) / dv

    def __str__(self) -> str:
        from .parser import expr_to_text

        return expr_to_text(self)


def cleared_column(column: Sequence[RationalExpr]) -> list[MultiPoly]:
    """Each entry times the lcm of the column's reduced denominators.

    The lcm is the product of the atoms of a common coprime basis, each to
    its largest exponent, so every entry's cofactor is an atom product.
    """
    entries = [e.reduce() for e in column]
    index: dict[MultiPoly, int] = {}
    for e in entries:
        for p, _ in e.atoms:
            index.setdefault(p, len(index))
    if not index:
        return [e.num for e in entries]
    basis, facts = _coprime_base(list(index))
    exps = []
    for e in entries:
        row = [0] * len(basis)
        for p, m in e.atoms:
            for k, f in facts[index[p]].items():
                row[k] += f * m
        exps.append(row)
    top = [max(col) for col in zip(*exps)]
    return [
        _times(e.num, _power_product(basis, [t - x for t, x in zip(top, row)], e.space))
        for e, row in zip(entries, exps)
    ]
