"""Sparse multivariate polynomials over Q(i) in the intrinsic coordinates.

Variables live in a fixed space determined by the CR dimension n and the
codimension c: slots 0..n-1 are z1..zn, slots n..2n-1 are zb1..zbn (the
formal conjugates), slots 2n..2n+c-1 are u1..uc. zb is a genuine formal
variable; reality of inputs is validated elsewhere, never assumed here.

Terms are kept in a canonical graded-lexicographic order with
z1 < ... < zn < zb1 < ... < zbn < u1 < ... < uc, so equal polynomials are
structurally equal and printing is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import gcd, lcm
from operator import add, mul, sub
from typing import Literal

from .gaussian import GR_ONE, GaussianRational, gr, reduced

Monomial = tuple[int, ...]

VarKind = Literal["z", "zb", "u"]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


@dataclass(frozen=True, slots=True)
class VarId:
    """A named variable: kind in {z, zb, u}, 1-based index."""

    kind: VarKind
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("z", "zb", "u"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("variable index is 1-based")

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True, slots=True)
class VarSpace:
    """The variable universe for one manifold shape (n, c)."""

    n: int
    c: int

    @property
    def nvars(self) -> int:
        return 2 * self.n + self.c

    def slot(self, v: VarId) -> int:
        if v.kind == "z":
            if v.index > self.n:
                raise ValueError(f"variable {v} out of range for n={self.n}")
            return v.index - 1
        if v.kind == "zb":
            if v.index > self.n:
                raise ValueError(f"variable {v} out of range for n={self.n}")
            return self.n + v.index - 1
        if v.index > self.c:
            raise ValueError(f"variable {v} out of range for c={self.c}")
        return 2 * self.n + v.index - 1

    def z_slot(self, i: int) -> int:
        """Slot of z_{i+1}; i is 0-based."""
        if not 0 <= i < self.n:
            raise ValueError(f"z index {i} out of range for n={self.n}")
        return i

    def zb_slot(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"zb index {i} out of range for n={self.n}")
        return self.n + i

    def u_slot(self, j: int) -> int:
        if not 0 <= j < self.c:
            raise ValueError(f"u index {j} out of range for c={self.c}")
        return 2 * self.n + j

    def conj_slot(self, slot: int) -> int:
        """Slot of the conjugate variable; u-slots are self-conjugate."""
        n = self.n
        if slot < n:
            return slot + n
        if slot < 2 * n:
            return slot - n
        return slot

    def var_name(self, slot: int) -> str:
        n = self.n
        if slot < n:
            return f"z{slot + 1}"
        if slot < 2 * n:
            return f"zb{slot - n + 1}"
        return f"u{slot - 2 * n + 1}"

    def conj_monomial(self, m: Monomial) -> Monomial:
        n = self.n
        return m[n : 2 * n] + m[:n] + m[2 * n :]


def _term_key(term: tuple[Monomial, GaussianRational]) -> tuple[int, Monomial]:
    # Graded lex: later slots are the larger variables, so ties are broken
    # by the reversed exponent vector.
    m = term[0]
    return (sum(m), m[::-1])


def _grlex_weights(nvars: int, base: int) -> list[int]:
    # sum(map(mul, m, w)) = deg(m)*base^nvars + sum_i m[i]*base^i is an int
    # that orders monomials like _term_key, provided every exponent is
    # below base. It is linear in m, so a product's key is a sum of keys.
    top = base**nvars
    return [top + base**i for i in range(nvars)]


# -- Gaussian-integer form ---------------------------------------------------
#
# Hot loops run on polynomials scaled to Gaussian-integer coefficients: a
# common denominator and (re, im) int pairs, with no per-operation gcd.

ICoeff = tuple[int, int]
IPoly = dict[Monomial, ICoeff]


def _int_form(terms: tuple[tuple[Monomial, GaussianRational], ...]) -> tuple[int, IPoly]:
    """(den, ip) with den * p = ip, den the lcm of the denominators."""
    den = 1
    for _, (_, _, d) in terms:
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return 1, {m: (a, b) for m, (a, b, _) in terms}
    return den, {m: (a * (den // d), b * (den // d)) for m, (a, b, d) in terms}


def _imul(a: IPoly, b: IPoly) -> IPoly:
    out: IPoly = {}
    get = out.get
    for m1, (x1, y1) in a.items():
        for m2, (x2, y2) in b.items():
            m = tuple(map(add, m1, m2))
            re = x1 * x2 - y1 * y2
            im = x1 * y2 + y1 * x2
            cur = get(m)
            if cur is not None:
                re += cur[0]
                im += cur[1]
            out[m] = (re, im)
    return {m: c for m, c in out.items() if c[0] or c[1]}


def _from_int_form(space: VarSpace, ip: IPoly, den: int = 1) -> MultiPoly:
    """The polynomial ip / den; zero coefficients are dropped."""
    items = [(m, reduced(re, im, den)) for m, (re, im) in ip.items() if re or im]
    items.sort(key=_term_key, reverse=True)
    return MultiPoly(space, tuple(items))


@dataclass(frozen=True, slots=True)
class MultiPoly:
    """Immutable sparse polynomial; terms sorted graded-lex descending."""

    space: VarSpace
    terms: tuple[tuple[Monomial, GaussianRational], ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_map(space: VarSpace, mapping: dict[Monomial, GaussianRational]) -> MultiPoly:
        items = [(m, cf) for m, cf in mapping.items() if not cf.is_zero()]
        items.sort(key=_term_key, reverse=True)
        return MultiPoly(space, tuple(items))

    @staticmethod
    def zero(space: VarSpace) -> MultiPoly:
        return MultiPoly(space, ())

    @staticmethod
    def const(space: VarSpace, value: GaussianRational) -> MultiPoly:
        if value.is_zero():
            return MultiPoly.zero(space)
        return MultiPoly(space, (((0,) * space.nvars, value),))

    @staticmethod
    def one(space: VarSpace) -> MultiPoly:
        return MultiPoly.const(space, GR_ONE)

    @staticmethod
    def variable(space: VarSpace, slot: int) -> MultiPoly:
        m = tuple(1 if i == slot else 0 for i in range(space.nvars))
        return MultiPoly(space, ((m, GR_ONE),))

    @staticmethod
    def monomial(space: VarSpace, m: Monomial, coeff: GaussianRational) -> MultiPoly:
        if coeff.is_zero():
            return MultiPoly.zero(space)
        return MultiPoly(space, ((m, coeff),))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def as_constant(self) -> GaussianRational:
        if self.is_zero():
            return gr(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    def is_one(self) -> bool:
        return self.is_constant() and not self.is_zero() and self.terms[0][1].is_one()

    # -- leading data ------------------------------------------------------

    def leading_monomial(self) -> Monomial:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coeff(self) -> GaussianRational:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(m) for m, _ in self.terms)

    def degree_in(self, slot: int) -> int:
        if self.is_zero():
            return -1
        return max(m[slot] for m, _ in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other: MultiPoly) -> None:
        if self.space != other.space:
            raise ValueError("mixing polynomials from different variable spaces")

    def __add__(self, other: MultiPoly) -> MultiPoly:
        self._require_same_space(other)
        acc = dict(self.terms)
        for m, cf in other.terms:
            cur = acc.get(m)
            if cur is None:
                acc[m] = cf
            else:
                acc[m] = cur + cf
        return MultiPoly.from_map(self.space, acc)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        self._require_same_space(other)
        acc = dict(self.terms)
        for m, cf in other.terms:
            cur = acc.get(m)
            if cur is None:
                acc[m] = -cf
            else:
                acc[m] = cur - cf
        return MultiPoly.from_map(self.space, acc)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.space, tuple((m, -cf) for m, cf in self.terms))

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        self._require_same_space(other)
        if self.is_zero() or other.is_zero():
            return MultiPoly.zero(self.space)
        d1, a = _int_form(self.terms)
        d2, b = _int_form(other.terms)
        return _from_int_form(self.space, _imul(a, b), d1 * d2)

    def scale(self, factor: GaussianRational) -> MultiPoly:
        if factor.is_zero():
            return MultiPoly.zero(self.space)
        return MultiPoly(self.space, tuple((m, cf * factor) for m, cf in self.terms))

    def pow(self, e: int) -> MultiPoly:
        if e < 0:
            raise ValueError("negative exponent on a polynomial")
        out = MultiPoly.one(self.space)
        for _ in range(e):
            out = out * self
        return out

    # -- calculus / field structure ---------------------------------------

    def diff(self, slot: int) -> MultiPoly:
        # Lowering one exponent keeps the grlex order of the surviving terms.
        out = []
        for m, (a, b, d) in self.terms:
            e = m[slot]
            if e == 0:
                continue
            mm = m[:slot] + (e - 1,) + m[slot + 1 :]
            out.append((mm, reduced(a * e, b * e, d)))
        return MultiPoly(self.space, tuple(out))

    def conj(self) -> MultiPoly:
        acc = {
            self.space.conj_monomial(m): cf.conj() for m, cf in self.terms
        }
        return MultiPoly.from_map(self.space, acc)

    def eval(self, values: tuple[GaussianRational, ...]) -> GaussianRational:
        if len(values) != self.space.nvars:
            raise ValueError("wrong number of point coordinates")
        if not self.terms:
            return gr(0)
        # With v_s = (a_s + b_s I)/d_s and t_s the degree in slot s, each
        # term times prod d_s^t_s is a Gaussian integer built from the
        # table (a_s + b_s I)^e d_s^(t_s - e); one division at the end.
        top = list(self.terms[0][0])
        for m, _ in self.terms:
            for s, e in enumerate(m):
                if e > top[s]:
                    top[s] = e
        tables = []
        scale = 1
        for (a, b, d), t in zip(values, top):
            ups = [(1, 0)]
            for _ in range(t):
                x, y = ups[-1]
                ups.append((x * a - y * b, x * b + y * a))
            tables.append([(x * d ** (t - e), y * d ** (t - e)) for e, (x, y) in enumerate(ups)])
            scale *= d**t
        den, ip = _int_form(self.terms)
        re = im = 0
        for m, (x, y) in ip.items():
            for s, e in enumerate(m):
                px, py = tables[s][e]
                if py or px != 1:
                    x, y = x * px - y * py, x * py + y * px
            re += x
            im += y
        return reduced(re, im, den * scale)

    def monic(self) -> MultiPoly:
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc.is_one():
            return self
        inv = lc.inverse()
        return self.scale(inv)

    def divexact(self, divisor: MultiPoly) -> MultiPoly:
        """Exact division; raises ExactDivisionError if it does not divide.

        Division by leading terms on the Gaussian-integer forms. The
        remainder's leading term comes from a heap of grlex keys instead of
        a scan of the whole remainder (Monagan & Pearce, "Polynomial
        division using dynamic arrays, heaps, and packed exponent vectors",
        CASC 2007).
        """
        self._require_same_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        if divisor.is_constant():
            return self.scale(divisor.as_constant().inverse())
        f_terms, g_terms = self.terms, divisor.terms
        g_lm = g_terms[0][0]
        # Every remainder monomial is at most the dividend's leading one in
        # grlex, so no exponent exceeds its total degree; nor does any of
        # the divisor's once its leading monomial divides that one.
        nv = len(g_lm)
        base = sum(f_terms[0][0]) + 1
        top = base**nv
        weights = _grlex_weights(nv, base)
        f_den, rem_int = _int_form(f_terms)
        g_den, g_int = _int_form(g_terms)
        lx, ly = g_int.pop(g_lm)
        norm = lx * lx + ly * ly
        g_key = sum(map(mul, g_lm, weights))
        # Each other divisor term as (key offset from the leading one, re, im).
        g_rest = [(sum(map(mul, m, weights)) - g_key, x, y) for m, (x, y) in g_int.items()]
        # The remainder is rem / scale, with Gaussian-integer values keyed
        # by grlex key. The dividend's terms come sorted, so the negated
        # keys already form a heap.
        rem = {sum(map(mul, m, weights)): c for m, c in rem_int.items()}
        heap = [-k for k in rem]
        scale = f_den
        out = []
        while heap:
            k = -heappop(heap)
            lead = rem.pop(k, None)
            if lead is None:
                continue
            low = k % top
            m = []
            for _ in range(nv):
                low, e = divmod(low, base)
                m.append(e)
            qm = tuple(map(sub, m, g_lm))
            if min(qm) < 0:
                raise ExactDivisionError("polynomial does not divide exactly")
            # The quotient term is t / scale * g_den with t = r conj(l) / norm
            # for the leading values r of the remainder and l of the divisor.
            # When norm does not divide r conj(l), the remainder is scaled up
            # so that t and the update below stay integral.
            rx, ry = lead
            tx = rx * lx + ry * ly
            ty = ry * lx - rx * ly
            if norm != 1:
                up = norm // gcd(norm, tx, ty)
                if up != 1:
                    rem = {key: (x * up, y * up) for key, (x, y) in rem.items()}
                    scale *= up
                    tx *= up
                    ty *= up
                tx //= norm
                ty //= norm
            out.append((qm, reduced(tx * g_den, ty * g_den, scale)))
            for dk, dx, dy in g_rest:
                mk = k + dk
                px = tx * dx - ty * dy
                py = tx * dy + ty * dx
                cur = rem.get(mk)
                if cur is None:
                    rem[mk] = (-px, -py)
                    heappush(heap, -mk)
                else:
                    nx = cur[0] - px
                    ny = cur[1] - py
                    if nx or ny:
                        rem[mk] = (nx, ny)
                    else:
                        del rem[mk]
        # Leading monomials strictly decrease, so the quotient comes out
        # sorted.
        return MultiPoly(self.space, tuple(out))

    def __str__(self) -> str:
        from .parser import poly_to_text

        return poly_to_text(self)


# -- gcd via content / primitive-part recursion ----------------------------
#
# The base field Q(i) makes contents of constant polynomials units, so the
# recursion bottoms out at 1. Results are monic, so gcd output is canonical.


def _monomial_content(p: MultiPoly) -> Monomial:
    mins = list(p.terms[0][0])
    for m, _ in p.terms[1:]:
        for i, e in enumerate(m):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


def _shift_down(p: MultiPoly, m: Monomial) -> MultiPoly:
    if all(e == 0 for e in m):
        return p
    return MultiPoly(
        p.space,
        tuple((tuple(a - b for a, b in zip(mm, m)), cf) for mm, cf in p.terms),
    )


def _univariate_view(p: MultiPoly, slot: int) -> dict[int, MultiPoly]:
    """Coefficients of p seen as a polynomial in one slot."""
    buckets: dict[int, dict[Monomial, GaussianRational]] = {}
    for m, cf in p.terms:
        e = m[slot]
        mm = m[:slot] + (0,) + m[slot + 1 :]
        buckets.setdefault(e, {})[mm] = cf
    return {e: MultiPoly.from_map(p.space, b) for e, b in buckets.items()}


def _from_univariate(space: VarSpace, slot: int, coeffs: dict[int, MultiPoly]) -> MultiPoly:
    acc: dict[Monomial, GaussianRational] = {}
    for e, cp in coeffs.items():
        for m, cf in cp.terms:
            mm = m[:slot] + (e,) + m[slot + 1 :]
            acc[mm] = cf
    return MultiPoly.from_map(space, acc)


def _content_in(p: MultiPoly, slot: int) -> MultiPoly:
    coeffs = sorted(_univariate_view(p, slot).values(), key=lambda q: len(q.terms))
    acc = coeffs[0]
    for q in coeffs[1:]:
        if acc.is_constant():
            break
        acc = poly_gcd(acc, q)
    if acc.is_constant():
        return MultiPoly.one(p.space)
    return acc


# -- coprimality certificate via univariate images --------------------------
#
# For one slot s, deg_s gcd(f, g) <= deg gcd(f(r), g(r)) whenever the leading
# s-coefficient of f survives the evaluation r of the other slots: leading
# s-coefficients multiply, so the gcd's leading coefficient divides f's and
# survives too, and gcd(f, g)(r) keeps its s-degree while dividing the image
# gcd. A zero bound for every shared slot proves the gcd is constant, which
# skips the pseudo-remainder recursion entirely.

_CERT_ATTEMPTS = 3


def _image_coeffs(
    p: IPoly, slot: int, vals: tuple[int, ...]
) -> dict[int, GaussianRational]:
    """p as a polynomial in one slot, with every other slot set to vals."""
    out: dict[int, ICoeff] = {}
    for m, (x, y) in p.items():
        k = 1
        for s, e in enumerate(m):
            if s != slot and e:
                k *= vals[s] ** e
        e = m[slot]
        cur = out.get(e)
        if cur is None:
            out[e] = (x * k, y * k)
        else:
            out[e] = (cur[0] + x * k, cur[1] + y * k)
    return {e: reduced(x, y, 1) for e, (x, y) in out.items() if x or y}


def _univ_gcd_degree(
    a: dict[int, GaussianRational], b: dict[int, GaussianRational]
) -> int:
    if not a:
        return max(b) if b else -1
    while b:
        if max(a) < max(b):
            a, b = b, a
        db = max(b)
        lb = b[db]
        bm = {e: c / lb for e, c in b.items()}
        r = dict(a)
        while r and max(r) >= db:
            dr = max(r)
            lr = r.pop(dr)
            for e, c in bm.items():
                if e == db:
                    continue
                shift = e + dr - db
                cur = r.get(shift)
                nxt = -(lr * c) if cur is None else cur - lr * c
                if nxt.is_zero():
                    r.pop(shift, None)
                else:
                    r[shift] = nxt
        a, b = bm, r
    return max(a)


def _coprimality_scan(f: MultiPoly, g: MultiPoly) -> tuple[bool, int | None]:
    """Certify gcd(f, g) constant, or suggest a pseudo-remainder pivot.

    Returns (True, None) when every shared slot provably contributes degree
    zero to the gcd; otherwise (False, slot) pointing at the slot whose
    remainder chain looks shortest.
    """
    space = f.space
    shared = [
        s for s in range(space.nvars) if f.degree_in(s) > 0 and g.degree_in(s) > 0
    ]
    if not shared:
        return True, None
    point_sets: list[tuple[int, ...]] = []
    for attempt in range(_CERT_ATTEMPTS):
        rnd = random.Random((attempt << 8) | 0xA5)
        point_sets.append(tuple(rnd.randrange(2, 20) for _ in range(space.nvars)))
    best: tuple[int, int, int] | None = None
    all_zero = True
    # Scaling by a constant changes neither the images' degrees nor their
    # gcd's, so the images are taken of the Gaussian-integer forms.
    f_int = _int_form(f.terms)[1]
    g_int = _int_form(g.terms)[1]
    for s in shared:
        df = f.degree_in(s)
        dg = g.degree_in(s)
        bound = min(df, dg)
        for vals in point_sets:
            fi = _image_coeffs(f_int, s, vals)
            if not fi or max(fi) != df:
                continue
            d = _univ_gcd_degree(fi, _image_coeffs(g_int, s, vals))
            if d < bound:
                bound = d
            if bound == 0:
                break
        if bound > 0:
            all_zero = False
            key = (min(df, dg) - bound, min(df, dg), s)
            if best is None or key < best:
                best = key
    if all_zero:
        return True, None
    pivot = best[2] if best is not None else shared[-1]
    return False, pivot


# The pseudo-remainder loop squares coefficient sizes at every step, so the
# common integer content is stripped after each step. Pseudo-remainders are
# only used up to a scalar, which makes both the denominator clearing on
# entry and the content stripping harmless.


def _int_layers(p: MultiPoly, slot: int) -> dict[int, IPoly]:
    out: dict[int, IPoly] = {}
    for m, c in _int_form(p.terms)[1].items():
        out.setdefault(m[slot], {})[m[:slot] + (0,) + m[slot + 1 :]] = c
    return out


def _istrip(layers: dict[int, IPoly]) -> dict[int, IPoly]:
    g = 0
    for cp in layers.values():
        for re, im in cp.values():
            g = gcd(g, re, im)
            if g == 1:
                return layers
    if g <= 1:
        return layers
    return {
        e: {m: (re // g, im // g) for m, (re, im) in cp.items()}
        for e, cp in layers.items()
    }


def _prem(f: MultiPoly, g: MultiPoly, slot: int) -> MultiPoly:
    """Pseudo-remainder of f by g in the given slot, up to a nonzero scalar."""
    space = f.space
    fu = _int_layers(f, slot)
    gu = _int_layers(g, slot)
    dg = max(gu)
    lcg = gu[dg]
    while fu:
        df = max(fu)
        if df < dg:
            break
        lf = fu.pop(df)
        new: dict[int, IPoly] = {}
        for e, cp in fu.items():
            new[e] = _imul(cp, lcg)
        for e, cp in gu.items():
            if e == dg:
                continue
            shift = e + df - dg
            prod = _imul(cp, lf)
            cur = new.get(shift)
            if cur is None:
                new[shift] = {m: (-re, -im) for m, (re, im) in prod.items()}
            else:
                merged = dict(cur)
                for m, (re, im) in prod.items():
                    old = merged.get(m)
                    nre = -re if old is None else old[0] - re
                    nim = -im if old is None else old[1] - im
                    if nre or nim:
                        merged[m] = (nre, nim)
                    else:
                        merged.pop(m, None)
                new[shift] = merged
        fu = _istrip({e: cp for e, cp in new.items() if cp})
    acc: IPoly = {}
    for e, cp in fu.items():
        for mm, c in cp.items():
            acc[mm[:slot] + (e,) + mm[slot + 1 :]] = c
    return _from_int_form(space, acc)


def _primitive_part(p: MultiPoly, slot: int) -> MultiPoly:
    mono = _monomial_content(p)
    p = _shift_down(p, mono)
    cont = _content_in(p, slot)
    if not cont.is_one():
        p = p.divexact(cont)
    return p


@lru_cache(maxsize=8192)
def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd over Q(i); gcd(0, 0) = 0."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return MultiPoly.one(f.space)
    mf = _monomial_content(f)
    mg = _monomial_content(g)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    f = _shift_down(f, mf)
    g = _shift_down(g, mg)
    shared = MultiPoly.monomial(f.space, common, GR_ONE)
    if f.is_constant() or g.is_constant():
        return shared
    coprime, pivot = _coprimality_scan(f, g)
    if coprime:
        return shared
    core = _gcd_primitive(f, g, pivot)
    return (shared * core).monic()


def _gcd_primitive(f: MultiPoly, g: MultiPoly, slot: int) -> MultiPoly:
    space = f.space
    cf = _content_in(f, slot)
    cg = _content_in(g, slot)
    c = poly_gcd(cf, cg)
    big = f.divexact(cf) if not cf.is_one() else f
    small = g.divexact(cg) if not cg.is_one() else g
    if big.degree_in(slot) < small.degree_in(slot):
        big, small = small, big
    while True:
        r = _prem(big, small, slot)
        if r.is_zero():
            prim = small
            break
        if r.degree_in(slot) == 0:
            prim = MultiPoly.one(space)
            break
        big, small = small, _primitive_part(r, slot)
    return c * prim

