"""CR frames, brackets, 1-forms, decomposition, rank of field systems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BELOSHAPKA, HEISENBERG, LIGHT_CONE_TUBE, MODEL_III2, build, pe
from crclass.errors import DependentFrameError, NotInSpanError
from crclass.gaussian import GR_I, gr
from crclass.frames import (
    VectorField,
    change_frame,
    characteristic_field,
    cramer_frame,
    decompose_in_frame,
    generic_rank,
    lie_bracket,
    rank_at_point,
    rho0,
)
from crclass.poly import MultiPoly, VarSpace
from crclass.ratfunc import RationalExpr


def test_heisenberg_frame():
    vm = build(*HEISENBERG)
    frame = cramer_frame(vm)
    assert frame.A[0][0] == pe("I*zb1", 1, 1)
    L = frame.L[0]
    assert L.coeffs[vm.space.z_slot(0)].is_one()
    assert L.coeffs[vm.space.zb_slot(0)].is_zero()
    assert L.coeffs[vm.space.u_slot(0)] == pe("I*zb1", 1, 1)
    # conjugate frame
    assert frame.Lbar[0].coeffs[vm.space.u_slot(0)] == pe("-I*z1", 1, 1)


def test_beloshapka_frame():
    vm = build(*BELOSHAPKA)
    frame = cramer_frame(vm)
    assert frame.A[0][0] == pe("I*zb1", 1, 2)
    assert frame.A[0][1] == pe("I*(2*z1*zb1 + zb1^2)", 1, 2)


def test_rigid_frame_is_i_phi_z():
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    sp = vm.space
    for i in range(2):
        want = vm.phi[0].diff(sp.z_slot(i)).scale(GR_I)
        assert frame.A[i][0] == want


def test_nonrigid_frame_coefficient():
    # u-dependent graphing function exercises the full Cramer denominator
    vm = build(1, 1, ["z1*zb1*u1"])
    frame = cramer_frame(vm)
    assert frame.A[0][0] == pe("(-u1*zb1)/(z1*zb1 + I)", 1, 1)


def test_frame_tangency():
    # rho0 annihilates the frame and its conjugate, for every model here
    for spec in (HEISENBERG, BELOSHAPKA, MODEL_III2, LIGHT_CONE_TUBE):
        vm = build(*spec)
        frame = cramer_frame(vm)
        for form in rho0(frame):
            for f in list(frame.L) + list(frame.Lbar):
                assert form.apply(f).is_zero()


def test_rho0_heisenberg_and_reality():
    vm = build(*HEISENBERG)
    frame = cramer_frame(vm)
    (form,) = rho0(frame)
    sp = vm.space
    assert form.coeffs[sp.u_slot(0)].is_one()
    assert form.coeffs[sp.z_slot(0)] == pe("-I*zb1", 1, 1)
    assert form.coeffs[sp.zb_slot(0)] == pe("I*z1", 1, 1)
    # each rho0_j is a real form: conjugation swaps dz_k and dzb_k slots
    for spec in (HEISENBERG, BELOSHAPKA):
        vm = build(*spec)
        sp = vm.space
        for form in rho0(cramer_frame(vm)):
            for slot, w in enumerate(form.coeffs):
                assert w.conj() == form.coeffs[sp.conj_slot(slot)]


def test_heisenberg_bracket():
    vm = build(*HEISENBERG)
    frame = cramer_frame(vm)
    br = lie_bracket(frame.L[0], frame.Lbar[0])
    sp = vm.space
    assert br.coeffs[sp.z_slot(0)].is_zero()
    assert br.coeffs[sp.zb_slot(0)].is_zero()
    assert br.coeffs[sp.u_slot(0)] == pe("-2*I", 1, 1)
    # du(i[L, Lbar]) = 2
    t = characteristic_field(frame)
    assert t.coeffs[sp.u_slot(0)] == pe("2", 1, 1)


def test_beloshapka_bracket():
    vm = build(*BELOSHAPKA)
    frame = cramer_frame(vm)
    br = lie_bracket(frame.L[0], frame.Lbar[0])
    sp = vm.space
    assert br.coeffs[sp.u_slot(0)] == pe("-2*I", 1, 2)
    assert br.coeffs[sp.u_slot(1)] == pe("-4*I*(z1 + zb1)", 1, 2)


def test_tube_frame_fields_commute():
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    assert lie_bracket(frame.L[0], frame.L[1]).is_zero()
    assert lie_bracket(frame.Lbar[0], frame.Lbar[1]).is_zero()


def test_characteristic_field_real_for_n1():
    for spec in (HEISENBERG, BELOSHAPKA, MODEL_III2):
        vm = build(*spec)
        t = characteristic_field(cramer_frame(vm))
        conj = t.conj()
        assert all((a - b).is_zero() for a, b in zip(t.coeffs, conj.coeffs))


def test_vf_conj_involution_heisenberg():
    vm = build(*HEISENBERG)
    frame = cramer_frame(vm)
    back = frame.L[0].conj().conj()
    assert all((a - b).is_zero() for a, b in zip(back.coeffs, frame.L[0].coeffs))
    lb = frame.L[0].conj()
    assert all(
        (a - b).is_zero() for a, b in zip(lb.coeffs, frame.Lbar[0].coeffs)
    )


def test_decompose_identity():
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    lams = decompose_in_frame(frame.L[0], frame.L)
    assert lams[0].is_one()
    assert lams[1].is_zero()


def test_decompose_iii2_fourth_bracket():
    # [Lbar, T] lies on [L, T] exactly, with unit coefficient
    vm = build(*MODEL_III2)
    frame = cramer_frame(vm)
    t = characteristic_field(frame)
    lt = lie_bracket(frame.L[0], t)
    lbt = lie_bracket(frame.Lbar[0], t)
    lams = decompose_in_frame(lbt, [frame.L[0], frame.Lbar[0], t, lt])
    assert [str(x) for x in lams] == ["0", "0", "0", "1"]
    d = lams[3]
    assert (d * d.conj()).is_one()


def test_decompose_errors():
    vm = build(*HEISENBERG)
    frame = cramer_frame(vm)
    sp = vm.space
    du = VectorField(
        sp,
        (
            RationalExpr.zero(sp),
            RationalExpr.zero(sp),
            RationalExpr.one(sp),
        ),
    )
    with pytest.raises(NotInSpanError):
        decompose_in_frame(du, [frame.L[0]])
    with pytest.raises(DependentFrameError):
        decompose_in_frame(frame.L[0], [frame.L[0], frame.L[0]])


def test_generic_rank_heisenberg_triple():
    vm = build(*HEISENBERG)
    frame = cramer_frame(vm)
    t = characteristic_field(frame)
    triple = [frame.L[0], frame.Lbar[0], t]
    assert generic_rank(triple).rank == 3
    assert rank_at_point(triple, vm.point_coords()) == 3
    # duplication adds nothing
    assert generic_rank(triple + [t]).rank == 3


def test_generic_rank_iii2_pentad():
    vm = build(*MODEL_III2)
    frame = cramer_frame(vm)
    t = characteristic_field(frame)
    lt = lie_bracket(frame.L[0], t)
    lbt = lie_bracket(frame.Lbar[0], t)
    assert generic_rank([frame.L[0], frame.Lbar[0], t, lt, lbt]).rank == 4
    hex_field = lie_bracket(frame.L[0], lt)
    assert (
        generic_rank([frame.L[0], frame.Lbar[0], t, lt, lbt, hex_field]).rank == 5
    )


def test_rank_at_point_pole_propagates():
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    bad_point = (gr(0), gr(1), gr(0), gr(1), gr(0))
    from crclass.ratfunc import PoleError

    with pytest.raises(PoleError):
        rank_at_point(frame.L, bad_point)


def test_change_frame():
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    same = change_frame(frame.L, [[gr(1), gr(0)], [gr(0), gr(1)]])
    assert all(
        (a - b).is_zero()
        for f, g in zip(same, frame.L)
        for a, b in zip(f.coeffs, g.coeffs)
    )
    swapped = change_frame(frame.L, [[gr(0), gr(1)], [gr(1), gr(0)]])
    assert all(
        (a - b).is_zero()
        for a, b in zip(swapped[0].coeffs, frame.L[1].coeffs)
    )
    with pytest.raises(DependentFrameError):
        change_frame(frame.L, [[gr(1), gr(1)], [gr(1), gr(1)]])


# randomized bracket laws on polynomial vector fields

SP3 = VarSpace(1, 1)
coeffs = st.builds(
    gr, st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
)
exponents = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(3)))


@st.composite
def fields(draw):
    out = []
    for _ in range(SP3.nvars):
        acc = MultiPoly.zero(SP3)
        for expo, coeff in draw(st.lists(st.tuples(exponents, coeffs), max_size=2)):
            acc = acc + MultiPoly.monomial(SP3, expo, coeff)
        out.append(RationalExpr.from_poly(acc))
    return VectorField(SP3, tuple(out))


def _vf_zero(x):
    return all(c.is_zero() for c in x.coeffs)


@given(fields(), fields())
@settings(max_examples=25, deadline=None)
def test_bracket_antisymmetry(x, y):
    assert _vf_zero(lie_bracket(x, y) + lie_bracket(y, x))


@given(fields(), fields(), fields())
@settings(max_examples=15, deadline=None)
def test_jacobi(x, y, z):
    total = (
        lie_bracket(x, lie_bracket(y, z))
        + lie_bracket(y, lie_bracket(z, x))
        + lie_bracket(z, lie_bracket(x, y))
    )
    assert _vf_zero(total)


@given(fields(), fields())
@settings(max_examples=25, deadline=None)
def test_conj_commutes_with_bracket(x, y):
    lhs = lie_bracket(x, y).conj()
    rhs = lie_bracket(x.conj(), y.conj())
    assert _vf_zero(lhs - rhs)
