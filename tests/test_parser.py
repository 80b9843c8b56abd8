"""Expression grammar, rendering, and round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crclass.gaussian import gr
from crclass.parser import (
    MAX_NESTING,
    ParseError,
    expr_to_text,
    parse_constant,
    parse_expr,
)
from crclass.poly import MultiPoly, VarSpace
from crclass.ratfunc import RationalExpr


def test_simple_monomial():
    e = parse_expr("z1*zb1", 1, 1)
    sp = VarSpace(1, 1)
    z = MultiPoly.variable(sp, sp.z_slot(0))
    zb = MultiPoly.variable(sp, sp.zb_slot(0))
    assert e == RationalExpr.from_poly(z * zb)


def test_model_equation_with_constant_factor():
    e = parse_expr("2*I*z1*zb1*(z1 + zb1)", 1, 2)
    sp = VarSpace(1, 2)
    z = RationalExpr.variable(sp, sp.z_slot(0))
    zb = RationalExpr.variable(sp, sp.zb_slot(0))
    assert e == (z * zb * (z + zb)).scale(gr(0, 2))


def test_precedence_and_unary_minus():
    assert parse_expr("-z1^2", 1, 1) == -(parse_expr("z1", 1, 1).pow(2))
    assert parse_expr("1 - 2*u1", 1, 1) == parse_expr("1 - (2*u1)", 1, 1)
    assert parse_expr("z1/2/2", 1, 1) == parse_expr("z1/4", 1, 1)


def test_rational_literals():
    e = parse_expr("3/2*z1*zb1", 1, 1)
    assert e == parse_expr("z1*zb1", 1, 1).scale(gr(3) / gr(2))
    assert parse_constant("-5/3") == gr(-5) / gr(3)
    assert parse_constant("2 + 3*I") == gr(2, 3)


def test_syntax_error_position():
    text = "z1*zb1/(1 - )"
    with pytest.raises(ParseError) as info:
        parse_expr(text, 1, 1)
    assert info.value.position == text.index(")")


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_expr("z2", 1, 1)  # out of range for n = 1
    with pytest.raises(ParseError):
        parse_expr("u2", 1, 1)
    with pytest.raises(ParseError):
        parse_expr("w1", 2, 1)


def test_bad_exponent():
    with pytest.raises(ParseError):
        parse_expr("z1^-2", 1, 1)
    with pytest.raises(ParseError):
        parse_expr("z1^(1/2)", 1, 1)


def test_overlong_literal_is_a_parse_error():
    # past Python's default int-string limit of 4300 digits
    digits = "9" * 5000
    with pytest.raises(ParseError) as info:
        parse_expr(f"z1 + {digits}", 1, 1)
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        parse_expr(f"z1^{digits}", 1, 1)
    assert info.value.position == 3
    with pytest.raises(ParseError, match="unknown variable"):
        parse_expr(f"z{digits}", 1, 1)


def test_division_by_zero_constant():
    with pytest.raises((ParseError, ZeroDivisionError)):
        parse_expr("z1/0", 1, 1)


def test_render_parse_fixed_points():
    for text, n, c in [
        ("z1*zb1", 1, 1),
        ("(z1*zb2 + zb1)/(z2*zb2 - 1)", 2, 1),
        ("0", 1, 1),
        ("-1/2", 1, 1),
        ("I*z1^2*zb1 - I*z1*zb1^2", 1, 3),
    ]:
        e = parse_expr(text, n, c)
        assert parse_expr(expr_to_text(e), n, c) == e


coeffs = st.builds(
    gr, st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9)
)
exponents = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(5)))


@st.composite
def exprs(draw):
    sp = VarSpace(2, 1)
    acc = MultiPoly.zero(sp)
    for expo, coeff in draw(st.lists(st.tuples(exponents, coeffs), max_size=4)):
        acc = acc + MultiPoly.monomial(sp, expo, coeff)
    den = MultiPoly.zero(sp)
    for expo, coeff in draw(st.lists(st.tuples(exponents, coeffs), max_size=2)):
        den = den + MultiPoly.monomial(sp, expo, coeff)
    if den.is_zero():
        den = MultiPoly.one(sp)
    return RationalExpr.make(acc, den)


@given(exprs())
@settings(max_examples=80, deadline=None)
def test_round_trip(e):
    assert parse_expr(expr_to_text(e), 2, 1) == e


def test_nesting_cap():
    assert parse_expr("(" * MAX_NESTING + "z1" + ")" * MAX_NESTING, 1, 1) == parse_expr(
        "z1", 1, 1
    )
    deeper = "(" * (MAX_NESTING + 1) + "z1" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_expr(deeper, 1, 1)


def test_long_unary_minus_chain():
    z1 = parse_expr("z1", 1, 1)
    assert parse_expr("-" * 5000 + "z1", 1, 1) == z1
    assert parse_expr("-" * 5001 + "z1", 1, 1) == -z1
