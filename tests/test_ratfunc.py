"""Rational expressions: canonical forms, arithmetic, calculus."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from crclass.frames import cramer_frame, named_brackets
from crclass.gaussian import GR_I, gr
from crclass.poly import MultiPoly, VarSpace, poly_gcd
from crclass.parser import parse_expr
from crclass.ratfunc import PoleError, RationalExpr

SP = VarSpace(2, 1)


def pe(text):
    return parse_expr(text, 2, 1)


def test_reduction_to_canonical_form():
    # common factor cancels, denominator is made monic
    a = pe("(z1^2 - zb1^2)/(z1 + zb1)")
    assert a == pe("z1 - zb1")
    assert a.den.is_one()
    b = pe("z1/(2 + 2*z2*zb2)")
    assert b.den.leading_coeff().is_one()


def test_add_with_shared_denominator():
    a = pe("z1/(1 - z2*zb2)")
    b = pe("z1*z2*zb2/(1 - z2*zb2)")
    assert a + b == pe("z1*(1 + z2*zb2)/(1 - z2*zb2)")


def test_inverse_pair_multiplies_to_one():
    a = pe("1/(I + u1)")
    b = pe("I + u1")
    assert (a * b).is_one()


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        pe("z1") / RationalExpr.zero(SP)
    with pytest.raises(ZeroDivisionError):
        RationalExpr.make(MultiPoly.one(SP), MultiPoly.zero(SP))


def test_diff_quotient_rule():
    a = pe("1/(I + u1)")
    u = SP.u_slot(0)
    assert a.diff(u) == pe("-1/(I + u1)^2")
    assert pe("z1^2*zb1").diff(SP.z_slot(0)) == pe("2*z1*zb1")


def test_diff_two_step():
    a = pe("z2*zb2*(z2 + zb2)")
    out = a.diff(SP.z_slot(1)).diff(SP.zb_slot(1))
    assert out == pe("2*(z2 + zb2)")


def test_conj():
    assert pe("I*z1").conj() == pe("-I*zb1")
    real = pe("z1*zb1 + u1")
    assert real.conj() == real
    # frame coefficient shape: conj flips the i in the denominator
    sp1 = VarSpace(1, 1)
    phi = parse_expr("z1*zb1*u1", 1, 1)
    a = -phi.diff(sp1.z_slot(0)) / (RationalExpr.const(sp1, GR_I) + phi.diff(sp1.u_slot(0)))
    want = -phi.diff(sp1.zb_slot(0)) / (
        RationalExpr.const(sp1, -GR_I) + phi.diff(sp1.u_slot(0))
    )
    assert a.conj() == want


def test_eval_and_poles():
    a = pe("z1*zb1")
    vals = (gr(1, 1), gr(0), gr(1, -1), gr(0), gr(0))
    assert a.eval(vals) == gr(2)
    b = pe("1/(1 - z2*zb2)")
    at_one = (gr(0), gr(1), gr(0), gr(1), gr(0))
    with pytest.raises(PoleError):
        b.eval(at_one)


coeffs = st.builds(
    gr, st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
)
exponents = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(5)))


@st.composite
def polys(draw, max_terms=3):
    terms = draw(st.lists(st.tuples(exponents, coeffs), max_size=max_terms))
    acc = MultiPoly.zero(SP)
    for expo, coeff in terms:
        acc = acc + MultiPoly.monomial(SP, expo, coeff)
    return acc


@st.composite
def exprs(draw):
    num = draw(polys())
    den = draw(polys(max_terms=2))
    if den.is_zero():
        den = MultiPoly.one(SP)
    return RationalExpr.make(num, den)


@given(exprs(), polys(max_terms=2))
@settings(max_examples=50, deadline=None)
def test_planted_common_factor_cancels(a, c):
    # a * (c/c) must normalize back to a
    if c.is_zero():
        return
    blown = RationalExpr.make(a.num * c, a.den * c)
    assert blown == a
    assert (blown - a).is_zero()


@given(exprs(), exprs())
@settings(max_examples=50, deadline=None)
def test_leibniz(a, b):
    s = SP.zb_slot(0)
    assert (a * b).diff(s) == a.diff(s) * b + a * b.diff(s)


@given(exprs())
@settings(max_examples=50, deadline=None)
def test_schwarz_symmetry(a):
    v, w = SP.z_slot(1), SP.u_slot(0)
    assert a.diff(v).diff(w) == a.diff(w).diff(v)


@given(exprs())
@settings(max_examples=50, deadline=None)
def test_conj_involution_and_diff_swap(a):
    assert a.conj().conj() == a
    s = SP.z_slot(0)
    assert a.diff(s).conj() == a.conj().diff(SP.conj_slot(s))


def _invariant(e):
    """den is the product of the atoms, which are monic and pairwise coprime."""
    acc = MultiPoly.one(SP)
    for p, k in e.atoms:
        assert k > 0 and not p.is_constant() and p.leading_coeff().is_one()
        acc = acc * p.pow(k)
    assert acc == e.den
    for i, (p, _) in enumerate(e.atoms):
        for q, _ in e.atoms[i + 1:]:
            assert poly_gcd(p, q).is_one()
    if e.is_zero():
        assert not e.atoms


def _same(got, want):
    # want comes from RationalExpr.make, so it is canonical; so must the
    # reduced form of got be, term for term
    _invariant(got)
    r = got.reduce()
    _invariant(r)
    assert (r.num, r.den) == (want.num, want.den)
    assert got == want and hash(got) == hash(want)


def ref_add(a, b):
    return RationalExpr.make(a.num * b.den + b.num * a.den, a.den * b.den)


def ref_mul(a, b):
    return RationalExpr.make(a.num * b.num, a.den * b.den)


def ref_div(a, b):
    return RationalExpr.make(a.num * b.den, a.den * b.num)


def ref_diff(a, slot):
    return RationalExpr.make(
        a.num.diff(slot) * a.den - a.num * a.den.diff(slot), a.den * a.den
    )


def ref_conj(a):
    return RationalExpr.make(a.num.conj(), a.den.conj())


@st.composite
def chains(draw):
    """An expression built by unreduced arithmetic, and its value reduced
    after every step."""
    got = want = draw(exprs())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        b = draw(exprs())
        op = draw(st.sampled_from(("add", "mul", "diff", "conj")))
        if op == "add":
            got, want = got + b, ref_add(want, b)
        elif op == "mul":
            got, want = got * b, ref_mul(want, b)
        elif op == "diff":
            slot = draw(st.integers(min_value=0, max_value=SP.nvars - 1))
            got, want = got.diff(slot), ref_diff(want, slot)
        else:
            got, want = got.conj(), ref_conj(want)
    return got, want


@given(chains(), chains())
@settings(max_examples=60, deadline=None)
def test_deferred_arithmetic_agrees_with_reduce_every_step(x, y):
    (a, ra), (b, rb) = x, y
    _same(a, ra)
    _same(a + b, ref_add(ra, rb))
    _same(a - b, ref_add(ra, -rb))
    _same(a * b, ref_mul(ra, rb))
    _same(a.conj(), ref_conj(ra))
    for slot in (SP.z_slot(0), SP.zb_slot(1), SP.u_slot(0)):
        _same(a.diff(slot), ref_diff(ra, slot))
    if not b.is_zero():
        q = a / b
        # an explicit division comes out reduced
        assert (q.num, q.den) == (q.reduce().num, q.reduce().den)
        _same(q, ref_div(ra, rb))
        _same(b.inverse(), ref_div(RationalExpr.one(SP), rb))
    assert a.is_one() == (ra.num == ra.den)
    assert a.is_constant() == (ra.num.is_constant() and ra.den.is_one())
    if a.is_constant():
        assert a.as_constant() == ra.num.as_constant()


# Pairwise coprime monic atoms, two of them prime by the degree-1 test.
SHARED_ATOMS = tuple(
    pe(text).num.monic() for text in ("z2*zb2 - 1", "z1*zb1 + u1 + I", "z1^2 + zb2^2 + 1")
)


@st.composite
def on_shared_atoms(draw):
    """Two unreduced expressions on the same atoms and exponents, with
    numerators that may hold some of those atoms."""
    exps = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3))
    atoms = tuple((p, e) for p, e in zip(SHARED_ATOMS, exps) if e)
    den = MultiPoly.one(SP)
    for p, e in atoms:
        den = den * p.pow(e)
    out = []
    for _ in range(2):
        num = draw(polys())
        for p in SHARED_ATOMS:
            num = num * p.pow(draw(st.integers(min_value=0, max_value=1)))
        out.append(RationalExpr(num, den, atoms))
    return out


@given(on_shared_atoms())
@settings(max_examples=40, deadline=None)
def test_quotient_on_shared_atoms_matches_reference(pair):
    a, b = pair
    if b.is_zero():
        return
    got = a / b
    want = RationalExpr.make(a.num * b.den, a.den * b.num)
    assert (got.num, got.den) == (want.num, want.den)
    _invariant(got)


def test_shared_factors_refine_the_basis():
    # (z1 + zb1)^2 and (z1 + zb1)*(z2 + 1) share a factor: on meeting, the
    # basis splits into z1 + zb1 and z2 + 1
    a = pe("1/(z1 + zb1)^2")
    b = pe("1/((z1 + zb1)*(z2 + 1))")
    s = a + b
    _invariant(s)
    assert sorted(k for _, k in s.atoms) == [1, 2]
    assert s == pe("(z2 + 1 + z1 + zb1)/((z1 + zb1)^2*(z2 + 1))")
    # the product keeps a numerator factor of an atom until reduced
    blown = pe("z1 + zb1") * a
    assert blown.atoms == a.atoms and blown.reduce() == pe("1/(z1 + zb1)")
    _invariant(blown.reduce())


def test_eval_at_removable_pole():
    # (z1^2 - 1) * 1/(z1 - 1) keeps z1 - 1 in its unreduced denominator;
    # at z1 = 1 only that denominator vanishes, and the value is z1 + 1
    x = pe("z1^2 - 1") * pe("1/(z1 - 1)")
    at_one = (gr(1), gr(0), gr(0), gr(0), gr(0))
    assert x.den.eval(at_one).is_zero()
    assert x.eval(at_one) == gr(2)
    with pytest.raises(PoleError):
        pe("1/(z1 - 1)").eval(at_one)


# A u-dependent (1,3) phi whose 14-term Cramer determinant is divisible by
# z1*zb1 + I/2: atoms that shared that factor would swell every bracket.
PHI_13 = [
    "(1 + 0*I)*z1*zb1*zb1*u3 + (1 - 0*I)*z1*z1*zb1*u3 + (0 + 2*I)*zb1*zb1*u1"
    " + (0 - 2*I)*z1*z1*u1 + (2 + -1*I)*z1*z1*zb1*u3 + (2 - -1*I)*z1*zb1*zb1*u3",
    "(0 + 2*I)*z1*zb1*zb1 + (0 - 2*I)*z1*z1*zb1 + (1 + -1*I)*z1*zb1*u2"
    " + (1 - -1*I)*z1*zb1*u2 + (0 + 1*I)*z1*zb1*zb1 + (0 - 1*I)*z1*z1*zb1",
    "(-2 + 1*I)*zb1*zb1 + (-2 - 1*I)*z1*z1 + (-2 + 1*I)*z1*z1*u2"
    " + (-2 - 1*I)*zb1*zb1*u2 + (2 + 1*I)*zb1*zb1*u1 + (2 - 1*I)*z1*z1*u1",
]


def test_brackets_of_hard_13_input_stay_reduced():
    vm = build(1, 3, PHI_13)
    tower = dict(islice(named_brackets(cramer_frame(vm).L, 3), 4))
    sizes = {}
    for name in ("T", "[L,T]"):
        for coeff in tower[name].coeffs:
            r = coeff.reduce()
            assert (len(coeff.num.terms), len(coeff.den.terms)) == (
                len(r.num.terms), len(r.den.terms)
            ), name
        sizes[name] = max((len(c.num.terms), len(c.den.terms)) for c in tower[name].coeffs)
    assert sizes["[L,T]"] == (1838, 421)
