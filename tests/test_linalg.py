"""Exact determinants and rank certificates."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, pe
from crclass import linalg
from crclass.gaussian import GR_I, gr
from crclass.linalg import (
    clear_columns,
    cramer_solve,
    det_expr,
    det_poly,
    generic_rank_matrix,
    rank_at_point_matrix,
)
from crclass.parser import parse_expr
from crclass.poly import MultiPoly, VarSpace
from crclass.ratfunc import RationalExpr

SP = VarSpace(2, 1)


def grid(texts):
    return [[pe(t, 2, 1) for t in row] for row in texts]


def test_det_small():
    m = grid([["1", "2"], ["3", "4"]])
    assert det_expr(m) == pe("-2", 2, 1)
    m = grid([["z1", "zb1"], ["z2", "zb2"]])
    assert det_expr(m) == pe("z1*zb2 - z2*zb1", 2, 1)


def test_det_row_swap_flips_sign():
    m = grid([["z1", "1", "0"], ["u1", "z2", "3"], ["1", "0", "zb1"]])
    swapped = [m[1], m[0], m[2]]
    assert (det_expr(m) + det_expr(swapped)).is_zero()


def test_det_with_denominators():
    m = grid([["1/(1 - z2*zb2)", "1"], ["1", "1 - z2*zb2"]])
    assert det_expr(m).is_zero()


def test_clear_columns_preserves_minor_vanishing():
    m = grid([["z1/(1 + u1)", "1"], ["z1", "1 + u1"]])
    cleared = clear_columns(m)
    # the cleared matrix is polynomial and its det vanishes like the original
    d = det_poly(cleared, (0, 1), (0, 1), {})
    assert d.is_zero() == det_expr(m).is_zero()


# the integer ranks below were frozen from an independent computer-algebra run
def test_generic_rank_int_matrices():
    cases = [
        ([["1", "2", "3"], ["2", "4", "6"], ["0", "0", "1"]], 2),
        (
            [
                ["3", "-1", "2", "0"],
                ["1", "1", "0", "4"],
                ["4", "0", "2", "4"],
                ["2", "-2", "2", "-4"],
            ],
            2,
        ),
        (
            [
                ["1", "0", "2", "-1", "3", "0"],
                ["0", "1", "1", "1", "0", "2"],
                ["2", "-1", "0", "0", "1", "1"],
                ["0", "0", "3", "1", "-2", "0"],
                ["1", "1", "3", "0", "3", "2"],
            ],
            4,
        ),
    ]
    for texts, want in cases:
        cert = generic_rank_matrix(grid(texts))
        assert cert.rank == want, texts


def test_generic_rank_gaussian_entries():
    m = grid([["1", "I", "0"], ["I", "-1", "0"], ["0", "0", "5"]])
    assert generic_rank_matrix(m).rank == 2


def test_generic_rank_polynomial_dependence():
    m = grid([["z1", "zb1"], ["z1^2", "z1*zb1"]])
    assert generic_rank_matrix(m).rank == 1
    m = grid(
        [
            ["z1", "zb1", "1"],
            ["z2", "zb2", "1"],
            ["z1 + z2", "zb1 + zb2", "2"],
        ]
    )
    assert generic_rank_matrix(m).rank == 2


def test_rank_certificate_witness_is_reproducible():
    m = grid([["z1", "zb1", "1"], ["z2", "zb2", "1"], ["z1 + z2", "zb1 + zb2", "2"]])
    cert = generic_rank_matrix(m)
    assert len(cert.rows) == cert.rank == len(cert.cols)
    cleared = clear_columns(m)
    minor = det_poly(cleared, cert.rows, cert.cols, {})
    assert minor == cert.minor
    assert not minor.is_zero()


def test_zero_and_empty():
    assert generic_rank_matrix([]).rank == 0
    cert = generic_rank_matrix(grid([["0", "0"], ["0", "0"]]))
    assert cert.rank == 0
    assert cert.minor is None


def test_rank_at_point():
    vals = [[gr(1), gr(0, 1)], [gr(0, 1), gr(-1)]]
    assert rank_at_point_matrix(vals) == 1
    vals = [[gr(1), gr(0)], [gr(0), gr(0)]]
    assert rank_at_point_matrix(vals) == 1
    vals = [[gr(0), gr(0)], [gr(0), gr(0)]]
    assert rank_at_point_matrix(vals) == 0
    vals = [[gr(2), gr(3)], [gr(1), gr(5)]]
    assert rank_at_point_matrix(vals) == 2


def test_rank_at_point_matches_evaluated_generic_case():
    texts = [["z1*zb1 + 2", "0"], ["0", "z2*zb2"]]
    m = grid(texts)
    origin = tuple(gr(0) for _ in range(5))
    vals = [[e.eval(origin) for e in row] for row in m]
    assert generic_rank_matrix(m).rank == 2
    assert rank_at_point_matrix(vals) == 1


def test_rank_search_stops_at_the_schur_bound(monkeypatch):
    # the shape of the rank of {L, Lb, T, [L,T], [Lb,T]} on a (1,3) input
    # of verdict DegenerateProduct(M3xR2): two frame columns, then three
    # multiples of T, rank 3
    t = ["z2", "u1", "1 + z2*zb2"]
    m = grid(
        [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"]]
        + [
            [a, ab, e, f"z1*({e})", f"zb1*({e})"]
            for a, ab, e in zip(["z1", "z2", "u1"], ["zb1", "zb2", "z1*zb1"], t)
        ]
    )
    calls = count_calls(monkeypatch, linalg, "det_poly")
    cert = generic_rank_matrix(m)
    assert (cert.rank, cert.rows, cert.cols) == (3, (0, 1, 2), (0, 1, 2))
    # only the 2 x 2 one-row, one-column extensions of the 3 x 3 witness
    assert [len(args[1]) for args in calls].count(4) == 4


# generic_rank_matrix against every minor, on matrices that are rank
# deficient by construction

SP3 = VarSpace(1, 1)
DENOMINATORS = [MultiPoly.one(SP3)] + [
    pe(t, 1, 1).num for t in ("1 + z1*zb1", "u1 - 2", "z1 + zb1 + 3")
]
small = st.integers(min_value=-2, max_value=2)
nonzero = small.filter(bool)
monomials = st.tuples(*(st.integers(min_value=0, max_value=1) for _ in range(3)))


@st.composite
def entries(draw):
    num = MultiPoly.zero(SP3)
    terms = st.lists(st.tuples(monomials, nonzero, small), min_size=1, max_size=2)
    for expo, re, im in draw(terms):
        num = num + MultiPoly.monomial(SP3, expo, gr(re, im))
    return RationalExpr.make(num, draw(st.sampled_from(DENOMINATORS)))


@st.composite
def deficient_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    inner = draw(st.integers(min_value=1, max_value=min(nrows, ncols)))
    b = [[draw(entries()) for _ in range(inner)] for _ in range(nrows)]
    c = [[draw(entries()) for _ in range(ncols)] for _ in range(inner)]
    zero = RationalExpr.zero(SP3)
    m = [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*c)] for row in b]
    if draw(st.booleans()):
        factor = draw(entries())
        m.append([factor * e for e in m[draw(st.integers(0, nrows - 1))]])
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        m = [row[:j] + [zero] + row[j + 1:] for row in m]
    return m


def brute_force_rank(cleared):
    for r in range(min(len(cleared), len(cleared[0])), 0, -1):
        for rows in combinations(range(len(cleared)), r):
            for cols in combinations(range(len(cleared[0])), r):
                if not det_poly(cleared, rows, cols).is_zero():
                    return r
    return 0


@given(deficient_matrices())
@settings(max_examples=40, deadline=None)
def test_generic_rank_matches_every_minor(m):
    cleared = clear_columns(m)
    cert = generic_rank_matrix(m)
    assert cert.rank == brute_force_rank(cleared)
    if cert.rank == 0:
        assert cert.minor is None
    else:
        assert not cert.minor.is_zero()
        assert cert.minor == det_poly(cleared, cert.rows, cert.cols)


# Cramer solves and ranks at a point


def random_system(rng, size):
    """An invertible size x size matrix of rational entries with
    nonconstant denominators."""
    dens = ["1 + z1*zb1", "u1 - 2", "z1 + zb1 + 3", "1 + u1^2"]
    while True:
        rows = [
            [pe(f"({random_poly(rng)})/({rng.choice(dens)})", 1, 1) for _ in range(size)]
            for _ in range(size)
        ]
        if not det_expr(rows).is_zero():
            return rows


def random_poly(rng):
    terms = [f"({rng.randint(-3, 3)} + {rng.randint(-3, 3)}*I)*{m}"
             for m in rng.sample(["1", "z1", "zb1", "u1", "z1*u1", "zb1^2"], 2)]
    return " + ".join(terms)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_cramer_solve_satisfies_the_system(size):
    rng = random.Random(f"cramer:{size}")
    rows = random_system(rng, size)
    den = det_expr(rows)
    for _ in range(3):
        rhs = [pe(f"({random_poly(rng)})/(1 - z1)", 1, 1) for _ in range(size)]
        x = cramer_solve(rows, rhs)
        for row, b in zip(rows, rhs):
            assert sum((a * v for a, v in zip(row, x)), RationalExpr.zero(SP3)) == b
        assert cramer_solve(rows, rhs, den) == x


def test_rank_at_point_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("rank-at-point")

    def gauss():
        return gr(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[gauss() for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
        while len(m) < nrows:
            # a row that depends on the rows so far
            coeffs = [gauss() for _ in m]
            m.append([sum((c * r[j] for c, r in zip(coeffs, m)), gr(0))
                      for j in range(ncols)])
        rng.shuffle(m)
        ref = sympy.Matrix([[sympy.Rational(v.re) + sympy.I * sympy.Rational(v.im)
                             for v in row] for row in m])
        want = ref.rank(iszerofunc=lambda e: sympy.expand(e) == 0)
        assert rank_at_point_matrix(m) == want
