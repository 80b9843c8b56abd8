"""Gaussian-rational scalar arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crclass.gaussian import GR_I, GR_ONE, GR_ZERO, GaussianRational, gr

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(GaussianRational, fractions, fractions)


def test_constructor_and_constants():
    assert gr(0) == GR_ZERO
    assert gr(1) == GR_ONE
    assert gr(0, 1) == GR_I
    assert gr(2, -3).re == Fraction(2)
    assert gr(2, -3).im == Fraction(-3)


def test_basic_identities():
    assert GR_I * GR_I == gr(-1)
    assert gr(3, 4) * gr(3, -4) == gr(25)
    assert gr(1, 1) + gr(1, -1) == gr(2)
    assert -gr(2, 5) == gr(-2, -5)


def test_division():
    assert gr(1) / GR_I == -GR_I
    assert gr(5, 5) / gr(1, 1) == gr(5)
    with pytest.raises(ZeroDivisionError):
        gr(1) / GR_ZERO


def test_inverse():
    v = gr(3, -4)
    assert v * v.inverse() == GR_ONE
    with pytest.raises(ZeroDivisionError):
        GR_ZERO.inverse()


def test_predicates():
    assert GR_ZERO.is_zero()
    assert GR_ONE.is_one()
    assert gr(7).is_real()
    assert not GR_I.is_real()
    assert GR_I.conj() == -GR_I


def test_str_forms():
    assert str(gr(0)) == "0"
    assert str(gr(0, 1)) == "I"
    assert str(gr(0, Fraction(3, 4))) == "3/4*I"
    assert str(gr(2, 3)) == "2 + 3*I"
    assert str(gr(2, -3)) == "2 - 3*I"
    assert str(gr(Fraction(-1, 2))) == "-1/2"


def test_str_of_parts_past_the_int_string_limit():
    # 5123 digits, more than str(int) converts by default
    k = int("7" * 4000) * 10**1123 + 123
    text = "7" * 4000 + "0" * 1120 + "123"
    assert str(gr(k)) == text
    assert str(gr(Fraction(-k, 3))) == f"-{text}/3"
    assert str(gr(1, Fraction(1, k))) == f"1 + 1/{text}*I"


@given(scalars, scalars)
def test_mul_commutes_and_conj_is_multiplicative(a, b):
    assert a * b == b * a
    assert (a * b).conj() == a.conj() * b.conj()


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_field_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == GR_ONE
    assert a.conj().conj() == a


# -- the integer-triple form against a Fraction-pair reference ---------------


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n2 = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n2, (x[1] * y[0] - x[0] * y[1]) / n2)


def _ref_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return "I" if im == 1 else "-I" if im == -1 else f"{im}*I"
    if im > 0:
        return f"{re} + " + ("I" if im == 1 else f"{im}*I")
    return f"{re} - " + ("I" if im == -1 else f"{-im}*I")


def _assert_canonical(v, ref):
    a, b, d = v
    assert d > 0 and gcd(a, b, d) == 1
    assert (v.re, v.im) == ref
    twin = GaussianRational(*ref)
    assert twin == v and hash(twin) == hash(v)


@given(scalars, scalars)
def test_ops_match_fraction_pair_reference(x, y):
    rx, ry = (x.re, x.im), (y.re, y.im)
    _assert_canonical(x, rx)
    _assert_canonical(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
    _assert_canonical(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
    _assert_canonical(x * y, _ref_mul(rx, ry))
    _assert_canonical(-x, (-rx[0], -rx[1]))
    _assert_canonical(x.conj(), (rx[0], -rx[1]))
    assert str(x) == _ref_str(*rx)
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _assert_canonical(x / y, _ref_div(rx, ry))
        _assert_canonical(y.inverse(), _ref_div((Fraction(1), Fraction(0)), ry))
        # the same value reached another way has the same triple and hash
        assert (x * y) / y == x and hash((x * y) / y) == hash(x)


def test_zero_and_integer_forms():
    assert tuple(GR_ZERO) == (0, 0, 1)
    assert tuple(gr(Fraction(6, 4), Fraction(-1, 6))) == (9, -1, 6)
    assert tuple(gr(1, 1) - gr(1, 1)) == (0, 0, 1)
    with pytest.raises(TypeError):
        2 * gr(1)
    with pytest.raises(TypeError):
        gr(1) * 2
