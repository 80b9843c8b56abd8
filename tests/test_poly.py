"""Sparse multivariate polynomials over Q(i)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crclass.gaussian import GR_I, GR_ONE, gr
from crclass.poly import (
    ExactDivisionError,
    MultiPoly,
    VarSpace,
    poly_gcd,
)

SP = VarSpace(2, 1)  # variables z1, z2, zb1, zb2, u1
Z1, Z2, ZB1, ZB2, U1 = (MultiPoly.variable(SP, s) for s in range(5))


def _mono(draw_exp, coeff):
    return MultiPoly.monomial(SP, tuple(draw_exp), coeff)


small_coeffs = st.builds(
    gr,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rational_coeffs = st.builds(gr, small_fractions, small_fractions)
exponents = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(5)))


@st.composite
def polys(draw, max_terms=4, coeffs=small_coeffs):
    terms = draw(st.lists(st.tuples(exponents, coeffs), max_size=max_terms))
    acc = MultiPoly.zero(SP)
    for expo, coeff in terms:
        acc = acc + _mono(expo, coeff)
    return acc


def test_variable_slots():
    assert SP.nvars == 5
    assert SP.var_name(SP.z_slot(0)) == "z1"
    assert SP.var_name(SP.zb_slot(1)) == "zb2"
    assert SP.var_name(SP.u_slot(0)) == "u1"
    assert SP.conj_slot(SP.z_slot(0)) == SP.zb_slot(0)
    assert SP.conj_slot(SP.u_slot(0)) == SP.u_slot(0)


def test_constructors_and_predicates():
    assert MultiPoly.zero(SP).is_zero()
    assert MultiPoly.one(SP).is_one()
    assert MultiPoly.const(SP, gr(3)).as_constant() == gr(3)
    assert Z1.total_degree() == 1
    assert (Z1 * Z1 * ZB2).degree_in(SP.z_slot(0)) == 2
    assert (Z1 * Z1 * ZB2).degree_in(SP.zb_slot(1)) == 1


def test_arith_smoke():
    p = Z1 + ZB1
    q = Z1 - ZB1
    assert p * q == Z1 * Z1 - ZB1 * ZB1
    assert (p + q) == Z1.scale(gr(2))
    assert p.pow(2) == Z1 * Z1 + Z1 * ZB1 + Z1 * ZB1 + ZB1 * ZB1


def test_diff():
    p = Z1 * Z1 * U1 + ZB2
    assert p.diff(SP.z_slot(0)) == Z1.scale(gr(2)) * U1
    assert p.diff(SP.u_slot(0)) == Z1 * Z1
    assert p.diff(SP.zb_slot(1)).is_one()
    assert p.diff(SP.zb_slot(0)).is_zero()


def test_conj_swaps_z_and_zb():
    p = Z1 * ZB2 + U1.scale(GR_I)
    assert p.conj() == ZB1 * Z2 + U1.scale(-GR_I)


def test_eval():
    p = Z1 * ZB1 + U1.scale(gr(2))
    vals = (gr(1, 1), gr(0), gr(1, -1), gr(0), gr(3))
    assert p.eval(vals) == gr(2) + gr(6)


def test_monic():
    p = (Z1 + ZB1).scale(gr(0, 2))
    m = p.monic()
    assert m.leading_coeff() == GR_ONE
    assert m == Z1 + ZB1


def test_divexact():
    p = (Z1 + ZB1) * (Z2 * Z2 + U1)
    assert p.divexact(Z1 + ZB1) == Z2 * Z2 + U1
    with pytest.raises(ExactDivisionError):
        (Z1 + ZB1).divexact(Z2)


def test_gcd_known_values():
    f = (Z1 + ZB1) * (Z1 + ZB1) * Z2
    g = (Z1 + ZB1) * U1
    assert poly_gcd(f, g) == Z1 + ZB1
    # coprime pair
    assert poly_gcd(Z1 + U1, ZB1 + U1 + MultiPoly.one(SP)).is_one()
    # monomial content is split off exactly
    assert poly_gcd(Z1 * Z1 * ZB1, Z1 * U1) == Z1
    assert poly_gcd(MultiPoly.zero(SP), g.scale(gr(5))) == g.monic()


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + MultiPoly.zero(SP) == a
    assert a * MultiPoly.one(SP) == a


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_diff_product_rule(a, b):
    s = SP.z_slot(0)
    assert (a * b).diff(s) == a.diff(s) * b + a * b.diff(s)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_conj_involution_and_multiplicativity(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_eval_is_hom(a, b):
    vals = (gr(1, 1), gr(-2), gr(1, -1), gr(0, 1), gr(1, 2))
    assert (a * b).eval(vals) == a.eval(vals) * b.eval(vals)
    assert (a + b).eval(vals) == a.eval(vals) + b.eval(vals)


@given(polys(coeffs=rational_coeffs), st.lists(rational_coeffs, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_eval_matches_term_by_term(a, point):
    want = gr(0)
    for m, cf in a.terms:
        term = cf
        for slot, e in enumerate(m):
            for _ in range(e):
                term = term * point[slot]
        want = want + term
    assert a.eval(tuple(point)) == want


@given(polys(max_terms=3), polys(max_terms=3))
@settings(max_examples=40, deadline=None)
def test_divexact_inverts_mul(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


@st.composite
def below_degree(draw, deg):
    """A nonzero polynomial of total degree below deg >= 1."""
    terms = draw(st.lists(st.tuples(exponents, rational_coeffs), max_size=3))
    acc = MultiPoly.zero(SP)
    for expo, coeff in terms:
        if sum(expo) < deg:
            acc = acc + _mono(expo, coeff)
    return acc if not acc.is_zero() else MultiPoly.one(SP)


@given(
    polys(max_terms=3, coeffs=rational_coeffs),
    polys(max_terms=3, coeffs=rational_coeffs),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_divexact_rational_coefficients_and_low_degree_remainder(a, b, data):
    assume(not b.is_constant())
    assert (a * b).divexact(b) == a
    # b divides a*b + r only if it divides r, which needs deg r >= deg b.
    r = data.draw(below_degree(b.total_degree()))
    with pytest.raises(ExactDivisionError):
        (a * b + r).divexact(b)


@given(polys(max_terms=2), polys(max_terms=2), polys(max_terms=2))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_and_sees_common_factor(a, b, c):
    if c.is_zero() or (a.is_zero() and b.is_zero()):
        return
    g = poly_gcd(a * c, b * c)
    # c divides the gcd, and the gcd divides both products
    g.divexact(c.monic())
    if not a.is_zero():
        (a * c).divexact(g)
    if not b.is_zero():
        (b * c).divexact(g)
