"""Sparse multivariate polynomials over Q(i)."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crclass.errors import DegreeOverflowError
from crclass.gaussian import GR_I, GR_ONE, gr
from crclass.parser import parse_expr
from crclass.poly import (
    _P,
    _R,
    MAX_DEGREE,
    ExactDivisionError,
    MultiPoly,
    VarSpace,
    _coprimality_scan,
    _exponent_range,
    is_linear_prime,
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


def _term_key(m):
    # The graded-lex sort key the packed keys replace: total degree first,
    # then the exponent vector read from the last slot down.
    return (sum(m), m[::-1])


# Exponents small enough to tie and large enough to fill a key field.
wide_exponents = st.tuples(
    *(st.integers(0, 3) | st.integers(MAX_DEGREE // 5 - 2, MAX_DEGREE // 5) for _ in range(5))
)


@given(st.lists(wide_exponents, min_size=1, max_size=8, unique=True))
@settings(max_examples=100, deadline=None)
def test_term_order_is_the_old_grlex_order(monos):
    p = MultiPoly.zero(SP)
    for m in monos:
        p = p + _mono(m, GR_ONE)
    assert [m for m, _ in p.monomials()] == sorted(monos, key=_term_key, reverse=True)
    assert p.leading_monomial() == max(monos, key=_term_key)
    assert p.total_degree() == max(map(sum, monos))
    for s in range(5):
        assert p.degree_in(s) == max(m[s] for m in monos)


@st.composite
def short_polys(draw):
    """A constant or a single term, either with a unit coefficient or not."""
    expo = draw(st.just((0,) * 5) | exponents)
    coeff = draw(st.just(GR_ONE) | rational_coeffs)
    return _mono(expo, coeff)


@given(polys(coeffs=rational_coeffs), short_polys())
@settings(max_examples=100, deadline=None)
def test_short_operand_products_match_term_by_term(a, b):
    want = MultiPoly.zero(SP)
    for ma, ca in a.monomials():
        for mb, cb in b.monomials():
            want = want + _mono(tuple(x + y for x, y in zip(ma, mb)), ca * cb)
    assert a * b == want
    assert b * a == want


def test_degree_cap():
    top = Z1.pow(MAX_DEGREE - 1)
    assert (top * ZB1).leading_monomial() == (MAX_DEGREE - 1, 0, 1, 0, 0)
    assert ((top + ZB1) * (Z1 + U1)).total_degree() == MAX_DEGREE
    # the last slot's field at its largest value does not spill into the
    # degree field, and still orders above the first slot's
    u_top = MultiPoly.monomial(SP, (0, 0, 0, 0, MAX_DEGREE), GR_ONE)
    assert u_top.total_degree() == MAX_DEGREE
    assert u_top.leading_monomial() == (0, 0, 0, 0, MAX_DEGREE)
    assert (u_top + top * Z1).monomials()[0][0] == (0, 0, 0, 0, MAX_DEGREE)
    with pytest.raises(DegreeOverflowError):
        top * Z1 * Z1
    with pytest.raises(DegreeOverflowError):
        top * (Z1 + ZB1) * (Z2 + U1)
    with pytest.raises(DegreeOverflowError):
        u_top * U1
    with pytest.raises(DegreeOverflowError):
        MultiPoly.monomial(SP, (1, 0, 0, 0, MAX_DEGREE), GR_ONE)


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


@given(
    polys(coeffs=rational_coeffs),
    st.lists(rational_coeffs, min_size=5, max_size=5) | st.just([gr(0)] * 5),
)
@settings(max_examples=60, deadline=None)
def test_eval_matches_term_by_term(a, point):
    want = gr(0)
    for m, cf in a.monomials():
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


# A 26- and a 7-term polynomial whose gcd the pseudo-remainder recursion
# alone did not return within 300 s. The 7-term one has no z1, so the gcd is
# that of the 7-term one with the z1-coefficients of the other.
GCD_PAIR = (
    "(4 - 2*I)*z1*z2^3*zb1^6*zb2^2*u1^7 + (-5/2 - 5/2*I)*z1^2*z2^4*zb1^4*zb2^2*u1^7"
    " + (-18 + 6*I)*z1*z2^3*zb1^7*zb2*u1^7"
    " + (-9/2 - 3/2*I)*z1^2*z2^2*zb1^4*zb2^4*u1^6"
    " + (-18 + 18*I)*z1*z2*zb1^7*zb2^3*u1^6 + (6 - 18*I)*z1*z2^4*zb1^5*zb2^2*u1^6"
    " + (-54 - 54*I)*z2^3*zb1^8*zb2*u1^6 + (-27 + 54*I)*z1*z2^4*zb1^6*zb2*u1^6"
    " + (-6 + 3*I)*z1^2*z2^3*zb1^3*zb2^4*u1^5 + 90*I*z1*z2^2*zb1^6*zb2^3*u1^5"
    " + (-9 - 18*I)*z1*z2^5*zb1^4*zb2^2*u1^5"
    " + (15/4 - 15/4*I)*z1^2*z2^6*zb1^2*zb2^2*u1^5 - 252*z2^4*zb1^7*zb2*u1^5"
    " + (18 + 54*I)*z1*z2^5*zb1^5*zb2*u1^5"
    " + (-3/4 + 9/4*I)*z1^2*z2^4*zb1^2*zb2^4*u1^4"
    " + (81 + 81*I)*z1*z2^3*zb1^5*zb2^3*u1^4 + (-6 - 2*I)*z1*z2^6*zb1^3*zb2^2*u1^4"
    " - 5/2*I*z1^2*z2^7*zb1*zb2^2*u1^4 + (-219 + 219*I)*z2^5*zb1^6*zb2*u1^4"
    " + (15 + 15/2*I)*z1*z2^6*zb1^4*zb2*u1^4 + 135/2*z1*z2^4*zb1^4*zb2^3*u1^3"
    " + 180*I*z2^6*zb1^5*zb2*u1^3 + (27/2 - 27/2*I)*z1*z2^5*zb1^3*zb2^3*u1^2"
    " + (36 + 36*I)*z2^7*zb1^4*zb2*u1^2 - 9/4*I*z1*z2^6*zb1^2*zb2^3*u1"
    " + 6*z2^8*zb1^3*zb2*u1",
    "zb1^6*zb2^2*u1^10 + (3 - 3*I)*z2*zb1^5*zb2^2*u1^9"
    " - 15/2*I*z2^2*zb1^4*zb2^2*u1^8 + (-5 - 5*I)*z2^3*zb1^3*zb2^2*u1^7"
    " - 15/4*z2^4*zb1^2*zb2^2*u1^6 + (-3/4 + 3/4*I)*z2^5*zb1*zb2^2*u1^5"
    " + 1/8*I*z2^6*zb2^2*u1^4",
)


def test_gcd_of_exclusive_variable_pair():
    f, g = (parse_expr(text, 2, 1).num for text in GCD_PAIR)
    assert (len(f.terms), len(g.terms)) == (26, 7)
    h = poly_gcd(f, g)
    # sympy's gcd over QQ_I agrees up to a unit
    assert h == parse_expr("zb1^2*zb2*u1^3 + (1 - I)*z2*zb1*zb2*u1^2 - 1/2*I*z2^2*zb2*u1", 2, 1).num
    assert f.divexact(h) * h == f
    assert g.divexact(h) * h == g


def _scan(f, g):
    return _coprimality_scan(f, g, _exponent_range(f)[1], _exponent_range(g)[1])


@given(
    polys(max_terms=3, coeffs=rational_coeffs),
    polys(max_terms=3, coeffs=rational_coeffs),
    polys(max_terms=3, coeffs=rational_coeffs),
)
@settings(max_examples=50, deadline=None)
def test_coprimality_scan_never_certifies_a_common_factor(h, a, b):
    assume(not h.is_constant() and not a.is_zero() and not b.is_zero())
    assert not _scan(h * a, h * b)[0]


def test_scan_prime_and_a_denominator_it_divides():
    assert _P % 4 == 1 and _R * _R % _P == _P - 1
    assert all(_P % d for d in range(2, 32768))  # 32768^2 > _P
    tiny = MultiPoly.const(SP, gr(Fraction(1, _P)))
    # the Gaussian-integer form of z1 + z2/_P is _P * z1 + z2; its z1 image
    # vanishes, but z2 alone settles the only shared slot
    assert _scan(Z1 + tiny * Z2, Z2 + MultiPoly.one(SP)) == (True, None)
    h = Z1 + tiny * ZB1
    f, g = h * (Z2 + U1), h * (Z2 - U1 * U1)
    assert not _scan(f, g)[0]
    assert poly_gcd(f, g) == h.monic()
    assert poly_gcd(Z1 * Z2 + tiny, Z1 + Z2).is_one()


@st.composite
def linear_in_a_slot(draw):
    """a x + b with a, b nonzero and free of the slot x, sometimes times c."""
    slot = draw(st.integers(min_value=0, max_value=SP.nvars - 1))
    x = MultiPoly.variable(SP, slot)
    low = st.tuples(*(st.integers(min_value=0, max_value=1) for _ in range(SP.nvars)))
    p = MultiPoly.zero(SP)
    for factor, size in ((x, 2), (MultiPoly.one(SP), 3)):
        for m, cf in draw(st.lists(st.tuples(low, rational_coeffs), min_size=1, max_size=size)):
            p = p + MultiPoly.monomial(SP, m[:slot] + (0,) + m[slot + 1:], cf) * factor
    c = draw(polys(max_terms=2))
    return p * c if draw(st.booleans()) and not c.is_zero() else p


@given(linear_in_a_slot())
@settings(max_examples=25, deadline=None)
def test_linear_primes_are_irreducible(p):
    sympy = pytest.importorskip("sympy")
    if p.is_constant() or not is_linear_prime(p.monic()):
        return
    names = sympy.symbols("z1 z2 zb1 zb2 u1")
    expr = sum(
        (sympy.Rational(cf.re) + sympy.I * sympy.Rational(cf.im))
        * sympy.Mul(*(v**e for v, e in zip(names, m)))
        for m, cf in p.monomials()
    )
    _, factors = sympy.factor_list(expr, *names, gaussian=True)
    assert [e for _, e in factors] == [1], (str(p), factors)


def test_linear_prime_test_examples():
    one = MultiPoly.one(SP)
    assert is_linear_prime((Z2 * ZB2 - one).monic())
    assert is_linear_prime(Z1 * ZB1 + U1 * Z2 + one)
    assert is_linear_prime(Z1)
    # a x with a nonconstant, and a x + b with gcd(a, b) = z2 + 1
    assert not is_linear_prime(Z1 * ZB1)
    assert not is_linear_prime((Z1 + ZB1) * (Z2 + one))
    # no slot of degree 1
    assert not is_linear_prime(Z1 * Z1 + ZB1 * ZB1)


def test_copies_and_pickles_keep_the_value():
    p = (Z2 * ZB2 - MultiPoly.one(SP)).monic()
    assert is_linear_prime(p)  # records the answer on p; Z1 + ZB1 has none
    for q in (p, Z1 + ZB1):
        for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert twin == q and hash(twin) == hash(q)
