"""Sparse multivariate polynomials over Q(i) in the intrinsic coordinates.

Variables live in a fixed space determined by the CR dimension n and the
codimension c: slots 0..n-1 are z1..zn, slots n..2n-1 are zb1..zbn (the
formal conjugates), slots 2n..2n+c-1 are u1..uc. zb is a genuine formal
variable; reality of inputs is validated elsewhere, never assumed here.

Terms are kept in a canonical graded-lexicographic order with
z1 < ... < zn < zb1 < ... < zbn < u1 < ... < uc, so equal polynomials are
structurally equal and printing is deterministic.

Each term is stored as (key, coefficient), where the int key packs the
monomial into FIELD_BITS-bit fields (packed exponent vectors: Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007). Field s, starting at bit FIELD_BITS * s,
holds the exponent of slot s, and the field above the nvars exponent
fields holds the total degree:

    key = deg << (FIELD_BITS * nvars) | sum_s e_s << (FIELD_BITS * s)

Comparing keys as ints compares degrees first and then the exponents from
the last slot down, which is the graded-lex order above, and the key of a
product of monomials is the sum of their keys. A field cannot carry into
its neighbour as long as every total degree is at most MAX_DEGREE, the
largest value of one field; each operation that adds keys checks this and
raises DegreeOverflowError instead of wrapping. The layout stays inside
this module: the constructors take exponent tuples and `monomials` gives
them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from math import gcd, lcm
from operator import le
from typing import Iterable

from .errors import DegreeOverflowError
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, reduced

Monomial = tuple[int, ...]

FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


@dataclass(frozen=True, slots=True)
class VarSpace:
    """The variable universe for one manifold shape (n, c)."""

    n: int
    c: int
    nvars: int = field(init=False, repr=False, compare=False)
    # Shift of the degree field, and the least key of degree MAX_DEGREE + 1.
    _deg_shift: int = field(init=False, repr=False, compare=False)
    _key_cap: int = field(init=False, repr=False, compare=False)
    # The zero and unit polynomials, shared by everything in this space.
    _zero: MultiPoly = field(init=False, repr=False, compare=False)
    _one: MultiPoly = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nvars = 2 * self.n + self.c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_deg_shift", FIELD_BITS * nvars)
        object.__setattr__(self, "_key_cap", (MAX_DEGREE + 1) << (FIELD_BITS * nvars))
        object.__setattr__(self, "_zero", MultiPoly(self, ()))
        object.__setattr__(self, "_one", MultiPoly(self, ((0, GR_ONE),)))

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


# -- packed monomial keys -----------------------------------------------------


def _pack(m: Iterable[int]) -> int:
    key = deg = 0
    shift = 0
    for e in m:
        key |= e << shift
        deg += e
        shift += FIELD_BITS
    if deg > MAX_DEGREE:
        raise DegreeOverflowError(f"polynomial degree exceeds {MAX_DEGREE}")
    return key | deg << shift


def _unpack(key: int, nvars: int) -> Monomial:
    """The exponent tuple of a key."""
    return tuple((key >> (FIELD_BITS * s)) & MAX_DEGREE for s in range(nvars))


def _slot_field(space: VarSpace, slot: int) -> tuple[int, int]:
    """(shift, unit): where the exponent of slot starts in a key, and the
    key of that variable, which a monomial gains per unit of exponent."""
    shift = FIELD_BITS * slot
    return shift, (1 << space._deg_shift) | (1 << shift)


def _check_degree(space: VarSpace, key: int) -> None:
    # key is a key or the sum of two; its degree, or the sum of their
    # degrees, passes MAX_DEGREE exactly when it reaches the cap, whatever
    # the lower fields carry.
    if key >= space._key_cap:
        raise DegreeOverflowError(f"polynomial degree exceeds {MAX_DEGREE}")


# -- Gaussian-integer form ---------------------------------------------------
#
# Hot loops run on polynomials scaled to Gaussian-integer coefficients: a
# common denominator and (re, im) int pairs, with no per-operation gcd.

ICoeff = tuple[int, int]
IPoly = dict[int, ICoeff]


def _int_form(terms: tuple[tuple[int, GaussianRational], ...]) -> tuple[int, IPoly]:
    """(den, ip) with den * p = ip, den the lcm of the denominators."""
    den = 1
    for _, (_, _, d) in terms:
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return 1, {k: (a, b) for k, (a, b, _) in terms}
    return den, {k: (a * (den // d), b * (den // d)) for k, (a, b, d) in terms}


def _imul(space: VarSpace, a: IPoly, b: IPoly) -> IPoly:
    _check_degree(space, max(a) + max(b))
    out: IPoly = {}
    get = out.get
    for k1, (x1, y1) in a.items():
        for k2, (x2, y2) in b.items():
            k = k1 + k2
            re = x1 * x2 - y1 * y2
            im = x1 * y2 + y1 * x2
            cur = get(k)
            if cur is not None:
                re += cur[0]
                im += cur[1]
            out[k] = (re, im)
    return {k: c for k, c in out.items() if c[0] or c[1]}


def _from_int_form(space: VarSpace, ip: IPoly, den: int = 1) -> MultiPoly:
    """The polynomial ip / den; ip holds no zero values."""
    return MultiPoly(space, tuple([(k, reduced(*ip[k], den)) for k in sorted(ip, reverse=True)]))


def _from_keys(space: VarSpace, acc: dict[int, GaussianRational]) -> MultiPoly:
    """The polynomial with these terms; zero coefficients are dropped."""
    return MultiPoly(space, tuple([
        (k, c) for k in sorted(acc, reverse=True) if (c := acc[k])[0] or c[1]
    ]))


@dataclass(frozen=True, slots=True)
class MultiPoly:
    """Immutable sparse polynomial; terms (key, coefficient) sorted by key,
    descending, which is graded-lex descending."""

    space: VarSpace
    terms: tuple[tuple[int, GaussianRational], ...]
    # set by is_linear_prime; unset until then, as a default would cost
    # every construction a store
    _prime: bool = field(init=False, repr=False, compare=False)

    def __reduce__(self) -> tuple:
        # copies and pickles carry the value only: _prime may be unset
        return MultiPoly, (self.space, self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(space: VarSpace) -> MultiPoly:
        return space._zero

    @staticmethod
    def one(space: VarSpace) -> MultiPoly:
        return space._one

    @staticmethod
    def const(space: VarSpace, value: GaussianRational) -> MultiPoly:
        if value.is_zero():
            return MultiPoly.zero(space)
        if value.is_one():
            return MultiPoly.one(space)
        return MultiPoly(space, ((0, value),))

    @staticmethod
    def variable(space: VarSpace, slot: int) -> MultiPoly:
        if not 0 <= slot < space.nvars:
            raise ValueError(f"slot {slot} out of range for {space.nvars} variables")
        return MultiPoly(space, ((_slot_field(space, slot)[1], GR_ONE),))

    @staticmethod
    def monomial(space: VarSpace, m: Monomial, coeff: GaussianRational) -> MultiPoly:
        if len(m) != space.nvars:
            raise ValueError("wrong number of exponents")
        if coeff.is_zero():
            return MultiPoly.zero(space)
        return MultiPoly(space, ((_pack(m), coeff),))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and t[0][0] == 0)

    def as_constant(self) -> GaussianRational:
        if self.is_zero():
            return GR_ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    def is_one(self) -> bool:
        t = self.terms
        return len(t) == 1 and t[0][0] == 0 and t[0][1].is_one()

    # -- terms and leading data --------------------------------------------

    def monomials(self) -> list[tuple[Monomial, GaussianRational]]:
        """The terms as (exponent tuple, coefficient), in term order."""
        nv = self.space.nvars
        return [(_unpack(k, nv), cf) for k, cf in self.terms]

    def leading_monomial(self) -> Monomial:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return _unpack(self.terms[0][0], self.space.nvars)

    def leading_coeff(self) -> GaussianRational:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return self.terms[0][0] >> self.space._deg_shift

    def degree_in(self, slot: int) -> int:
        if self.is_zero():
            return -1
        shift = FIELD_BITS * slot
        return max((k >> shift) & MAX_DEGREE for k, _ in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other: MultiPoly) -> None:
        if self.space is not other.space and self.space != other.space:
            raise ValueError("mixing polynomials from different variable spaces")

    def __add__(self, other: MultiPoly) -> MultiPoly:
        self._require_same_space(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for k, cf in other.terms:
            cur = acc.get(k)
            acc[k] = cf if cur is None else cur + cf
        return _from_keys(self.space, acc)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        self._require_same_space(other)
        if not other.terms:
            return self
        acc = dict(self.terms)
        for k, cf in other.terms:
            cur = acc.get(k)
            acc[k] = -cf if cur is None else cur - cf
        return _from_keys(self.space, acc)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.space, tuple([(k, -cf) for k, cf in self.terms]))

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        self._require_same_space(other)
        space = self.space
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly.zero(space)
        if len(b) == 1:
            poly = self
        elif len(a) == 1:
            poly, a, b = other, b, a
        else:
            d1, ia = _int_form(a)
            d2, ib = _int_form(b)
            return _from_int_form(space, _imul(space, ia, ib), d1 * d2)
        # b is one term kb*cb: a constant scales, and shifting every key by
        # kb keeps their order.
        kb, cb = b[0]
        if kb == 0:
            return poly.scale(cb)
        _check_degree(space, a[0][0] + kb)
        if cb.is_one():
            return MultiPoly(space, tuple([(k + kb, c) for k, c in a]))
        return MultiPoly(space, tuple([(k + kb, c * cb) for k, c in a]))

    def scale(self, factor: GaussianRational) -> MultiPoly:
        if factor.is_zero():
            return MultiPoly.zero(self.space)
        if factor.is_one():
            return self
        return MultiPoly(self.space, tuple([(k, cf * factor) for k, cf in self.terms]))

    def pow(self, e: int) -> MultiPoly:
        if e < 0:
            raise ValueError("negative exponent on a polynomial")
        out = MultiPoly.one(self.space)
        for _ in range(e):
            out = out * self
        return out

    # -- calculus / field structure ---------------------------------------

    def diff(self, slot: int) -> MultiPoly:
        # Lowering one exponent keeps the order of the surviving terms.
        shift, unit = _slot_field(self.space, slot)
        out = []
        for k, (a, b, d) in self.terms:
            e = (k >> shift) & MAX_DEGREE
            if e:
                out.append((k - unit, reduced(a * e, b * e, d)))
        return MultiPoly(self.space, tuple(out))

    def conj(self) -> MultiPoly:
        # Swap the z fields with the zb fields; the degree and u fields stay.
        width = FIELD_BITS * self.space.n
        z_fields = (1 << width) - 1
        zb_fields = z_fields << width
        rest = ~(z_fields | zb_fields)
        out = [
            ((k & rest) | (k & z_fields) << width | (k & zb_fields) >> width, cf.conj())
            for k, cf in self.terms
        ]
        out.sort(reverse=True)
        return MultiPoly(self.space, tuple(out))

    def eval(self, values: tuple[GaussianRational, ...]) -> GaussianRational:
        nv = self.space.nvars
        if len(values) != nv:
            raise ValueError("wrong number of point coordinates")
        terms = self.terms
        if not terms:
            return GR_ZERO
        if values.count(GR_ZERO) == nv:
            k, cf = terms[-1]
            return cf if k == 0 else GR_ZERO
        # With v_s = (a_s + b_s I)/d_s and t_s the degree in slot s, each
        # term times prod d_s^t_s is a Gaussian integer built from the
        # table (a_s + b_s I)^e d_s^(t_s - e); one division at the end.
        den, ip = _int_form(terms)
        monos = [(_unpack(k, nv), c) for k, c in ip.items()]
        top = [max(col) for col in zip(*(m for m, _ in monos))]
        tables = []
        scale = 1
        for (a, b, d), t in zip(values, top):
            ups = [(1, 0)]
            for _ in range(t):
                x, y = ups[-1]
                ups.append((x * a - y * b, x * b + y * a))
            tables.append([(x * d ** (t - e), y * d ** (t - e)) for e, (x, y) in enumerate(ups)])
            scale *= d**t
        re = im = 0
        for m, (x, y) in monos:
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
        return self.scale(self.leading_coeff().inverse())

    def divexact(self, divisor: MultiPoly) -> MultiPoly:
        """Exact division; raises ExactDivisionError if it does not divide.

        Division by leading terms on the Gaussian-integer forms. The
        remainder's leading term comes from a heap of keys instead of a
        scan of the whole remainder (Monagan & Pearce, "Polynomial
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
        g_key = divisor.terms[0][0]
        # (shift, exponent) of each slot in the divisor's leading monomial
        needs = [
            (FIELD_BITS * s, e)
            for s, e in enumerate(_unpack(g_key, self.space.nvars)) if e
        ]
        scale, rem = _int_form(self.terms)
        g_den, g_int = _int_form(divisor.terms)
        lx, ly = g_int.pop(g_key)
        norm = lx * lx + ly * ly
        # Each other divisor term as (key offset from the leading one, re, im).
        g_rest = [(k - g_key, x, y) for k, (x, y) in g_int.items()]
        # The remainder is rem / scale, with Gaussian-integer values keyed
        # by monomial key. The dividend's terms come sorted, so the negated
        # keys already form a heap.
        heap = [-k for k in rem]
        out = []
        while heap:
            k = -heappop(heap)
            lead = rem.pop(k, None)
            if lead is None:
                continue
            for shift, e in needs:
                if (k >> shift) & MAX_DEGREE < e:
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
            out.append((k - g_key, reduced(tx * g_den, ty * g_den, scale)))
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


def may_divide(f: MultiPoly, p: MultiPoly) -> bool:
    """False when p cannot divide f: the leading and the trailing monomial
    of a product are the products of the factors' ones."""
    nv = f.space.nvars
    for kf, kp in ((f.terms[0][0], p.terms[0][0]), (f.terms[-1][0], p.terms[-1][0])):
        if not all(map(le, _unpack(kp, nv), _unpack(kf, nv))):
            return False
    return True


# -- gcd via content / primitive-part recursion ----------------------------
#
# The base field Q(i) makes contents of constant polynomials units, so the
# recursion bottoms out at 1. Results are monic, so gcd output is canonical.


def _exponent_range(p: MultiPoly) -> tuple[list[int], list[int]]:
    """The least and the largest exponent of each slot over p's terms, in
    one pass over the packed keys."""
    nv = p.space.nvars
    lo = [MAX_DEGREE] * nv
    hi = [0] * nv
    shifts = tuple(enumerate(range(0, FIELD_BITS * nv, FIELD_BITS)))
    for k, _ in p.terms:
        for s, x in shifts:
            e = k >> x & MAX_DEGREE
            if e < lo[s]:
                lo[s] = e
            if e > hi[s]:
                hi[s] = e
    return lo, hi


def _shift_down(p: MultiPoly, m: Monomial) -> MultiPoly:
    if not any(m):
        return p
    key = _pack(m)
    return MultiPoly(p.space, tuple([(k - key, cf) for k, cf in p.terms]))


def _univariate_view(p: MultiPoly, slot: int) -> dict[int, MultiPoly]:
    """Coefficients of p seen as a polynomial in one slot."""
    shift, unit = _slot_field(p.space, slot)
    buckets: dict[int, list[tuple[int, GaussianRational]]] = {}
    for k, cf in p.terms:
        e = (k >> shift) & MAX_DEGREE
        buckets.setdefault(e, []).append((k - e * unit, cf))
    # Lowering every key of a bucket by the same amount keeps their order.
    return {e: MultiPoly(p.space, tuple(b)) for e, b in buckets.items()}


def _content_in(p: MultiPoly, slot: int, acc: MultiPoly | None = None) -> MultiPoly:
    """gcd of p's coefficients in slot, and of acc if given; smallest first."""
    for q in sorted(_univariate_view(p, slot).values(), key=lambda q: len(q.terms)):
        if acc is not None and acc.is_constant():
            break
        acc = q if acc is None else poly_gcd(acc, q)
    return MultiPoly.one(p.space) if acc.is_constant() else acc


def is_linear_prime(p: MultiPoly) -> bool:
    """True when p is proven prime over Q(i) by the degree-1 test: if
    p = a x + b in some slot x with gcd(a, b) = 1, p is primitive of degree
    1 over the UFD Q(i)[other slots], hence irreducible. A constant a or b
    needs no gcd; otherwise one gcd decides, since a common factor of a and
    b divides p. The answer is recorded on p."""
    known = getattr(p, "_prime", None)
    if known is None:
        known, pair = False, None
        for s, d in enumerate(_exponent_range(p)[1]):
            if d == 1:
                view = _univariate_view(p, s)
                if 0 not in view or view[0].is_constant() or view[1].is_constant():
                    known = 0 in view or view[1].is_constant()
                    break
                pair = pair or (view[1], view[0])
        else:
            known = pair is not None and poly_gcd(*pair).is_one()
        object.__setattr__(p, "_prime", known)
    return known


# -- coprimality certificate via univariate images mod a prime ----------------
#
# i -> _R maps Z[i] onto GF(_P), as _R^2 = -1 (mod _P) for the prime
# _P = 1 (mod 4). The images are of the Gaussian-integer forms F and G of
# f and g (times their lcm denominators, which changes neither gcd), so no
# denominator needs an inverse mod _P. Then every slot but s is set to a
# fixed point. If F = H A and G = H B with H the primitive gcd over Z[i],
# H's image divides both images, and keeps its s-degree whenever F's
# leading s-coefficient survives (leading coefficients multiply):
# deg_s H <= deg gcd(images). A zero bound for every shared slot proves
# the gcd constant and skips the pseudo-remainder recursion; an image that
# loses F's leading coefficient is skipped, and a slot no point settles
# falls back to the recursion. Each term is evaluated once per point,
# t = c prod_s v_s^e_s; grouped by e_s, these are the coefficients of the
# image in slot s with x_s scaled by v_s, which changes neither its degree
# nor its gcd's.

_P = 1073741789
_R = 140687844
_POINTS = tuple(tuple(pow(3, 1 + s + 64 * a, _P) for s in range(64)) for a in range(3))


def _residues(terms: tuple[tuple[int, GaussianRational], ...]) -> list[tuple[int, int]]:
    """Each term's key and its Gaussian-integer coefficient's image in GF(_P)."""
    return [(k, (x + y * _R) % _P) for k, (x, y) in _int_form(terms)[1].items()]


def _slot_images(
    residues: list[tuple[int, int]], vals: tuple[int, ...], top: list[int], slots: list[int]
) -> dict[int, list[int]]:
    """The dense image in GF(_P) of the polynomial in each of slots, every
    other slot set to vals; top bounds the exponent of each slot."""
    tables = [[pow(v, e, _P) for e in range(t + 1)] for v, t in zip(vals, top)]
    out = {s: [0] * (top[s] + 1) for s in slots}
    fields = [(FIELD_BITS * s, out[s]) for s in slots]
    shifts = list(zip(range(0, FIELD_BITS * len(top), FIELD_BITS), tables))
    for k, t in residues:
        for x, row in shifts:
            e = k >> x & MAX_DEGREE
            if e:
                t = t * row[e] % _P
        for x, image in fields:
            image[k >> x & MAX_DEGREE] += t
    for image in out.values():
        image[:] = [c % _P for c in image]
        while image and not image[-1]:
            image.pop()
    return out


def _gcd_degree_mod(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) in GF(_P)[x]; dense, trimmed, a nonzero."""
    while b:
        inv = pow(b[-1], -1, _P)
        n = len(b) - 1
        while len(a) > n:
            q = a.pop() * inv % _P
            if q:
                off = len(a) - n
                for j in range(n):
                    a[off + j] = (a[off + j] - q * b[j]) % _P
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


def _coprimality_scan(
    f: MultiPoly, g: MultiPoly, df: list[int], dg: list[int]
) -> tuple[bool, int | None]:
    """Certify gcd(f, g) constant, or suggest a pseudo-remainder pivot.

    df and dg are the largest exponents of each slot in f and g. Returns
    (True, None) when every shared slot provably contributes degree zero to
    the gcd; otherwise (False, slot) pointing at the slot whose remainder
    chain looks shortest.
    """
    bound = {s: min(a, b) for s, (a, b) in enumerate(zip(df, dg)) if a and b}
    if not bound:
        return True, None
    top = list(map(max, df, dg))
    f_res, g_res = _residues(f.terms), _residues(g.terms)
    for vals in _POINTS:
        slots = list(bound)
        fi = _slot_images(f_res, vals, top, slots)
        gi = _slot_images(g_res, vals, top, slots)
        for s in slots:
            if len(fi[s]) == df[s] + 1:
                bound[s] = min(bound[s], _gcd_degree_mod(fi[s], gi[s]))
                if not bound[s]:
                    del bound[s]
        if not bound:
            return True, None
    return False, min(bound, key=lambda s: (min(df[s], dg[s]) - bound[s], min(df[s], dg[s]), s))


# The pseudo-remainder loop squares coefficient sizes at every step, so the
# common integer content is stripped after each step. Pseudo-remainders are
# only used up to a scalar, which makes both the denominator clearing on
# entry and the content stripping harmless.


def _int_layers(p: MultiPoly, slot: int) -> dict[int, IPoly]:
    shift, unit = _slot_field(p.space, slot)
    out: dict[int, IPoly] = {}
    for k, c in _int_form(p.terms)[1].items():
        e = (k >> shift) & MAX_DEGREE
        out.setdefault(e, {})[k - e * unit] = c
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
            new[e] = _imul(space, cp, lcg)
        for e, cp in gu.items():
            if e == dg:
                continue
            shift = e + df - dg
            prod = _imul(space, cp, lf)
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
    unit = _slot_field(space, slot)[1]
    acc: IPoly = {}
    for e, cp in fu.items():
        for k, c in cp.items():
            acc[k + e * unit] = c
    if acc:
        _check_degree(space, max(acc))
    return _from_int_form(space, acc)


def _primitive_part(p: MultiPoly, slot: int) -> MultiPoly:
    p = _shift_down(p, _exponent_range(p)[0])
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
    lo_f, hi_f = _exponent_range(f)
    lo_g, hi_g = _exponent_range(g)
    f = _shift_down(f, lo_f)
    g = _shift_down(g, lo_g)
    shared = MultiPoly.monomial(f.space, tuple(map(min, lo_f, lo_g)), GR_ONE)
    df = [h - l for h, l in zip(hi_f, lo_f)]
    dg = [h - l for h, l in zip(hi_g, lo_g)]
    if not any(df) or not any(dg):
        return shared
    coprime, pivot = _coprimality_scan(f, g, df, dg)
    if coprime:
        return shared
    # A slot in one operand only is free of the gcd: gcd(f, g) is the gcd
    # of the other operand with f's coefficients in that slot.
    for s, (a, b) in enumerate(zip(df, dg)):
        if a and not b:
            return (shared * _content_in(f, s, g)).monic()
        if b and not a:
            return (shared * _content_in(g, s, f)).monic()
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

