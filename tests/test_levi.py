"""Levi matrix, determinant oracles, slant function, Freeman data."""

import random

import pytest

from conftest import (
    LIGHT_CONE_TUBE,
    PRODUCT_M3XC,
    SPHERE,
    SUM_SQUARE,
    build,
    is_cr_function,
    pe,
)
from crclass.errors import RankMismatchError
from crclass.frames import change_frame, cramer_frame, rho0
from crclass.gaussian import GR_I, gr
from crclass.levi import (
    k_quotients,
    l1a1_closed_form,
    levi_data,
    levi_det_closed_form,
    levi_entries,
    slant_k,
)
from crclass.linalg import det_expr, generic_rank_matrix
from crclass.poly import MultiPoly, VarSpace
from crclass.ratfunc import RationalExpr


def test_heisenberg_levi_is_two():
    vm = build(1, 1, ["z1*zb1"])
    frame = cramer_frame(vm)
    rows = levi_data(vm, frame, frame.L).rows
    assert rows[0][0] == pe("2", 1, 1)
    assert generic_rank_matrix(rows).rank == 1


def test_sphere_levi_identity():
    vm = build(*SPHERE)
    frame = cramer_frame(vm)
    rows = levi_data(vm, frame, frame.L).rows
    for r in range(2):
        for c in range(2):
            want = "2" if r == c else "0"
            assert rows[r][c] == pe(want, 2, 1)
    assert det_expr(rows) == pe("4", 2, 1)
    assert generic_rank_matrix(rows).rank == 2


def test_rigid_levi_entries_are_second_derivatives():
    # entry(r, c) = 2 phi_{z_c zb_r} for u-independent phi
    vm = build(2, 1, ["z1*zb1 + z1^2*zb2 + zb1^2*z2"])
    frame = cramer_frame(vm)
    rows = levi_data(vm, frame, frame.L).rows
    assert rows[0][0] == pe("2", 2, 1)
    assert rows[0][1] == pe("4*zb1", 2, 1)
    assert rows[1][0] == pe("4*z1", 2, 1)
    assert rows[1][1].is_zero()
    assert det_expr(rows) == pe("-16*z1*zb1", 2, 1)


def test_levi_hermitian():
    for spec in (SPHERE, LIGHT_CONE_TUBE, SUM_SQUARE):
        vm = build(*spec)
        frame = cramer_frame(vm)
        rows = levi_data(vm, frame, frame.L).rows
        for r in range(2):
            for c in range(2):
                assert rows[r][c] == rows[c][r].conj()


def test_tube_determinant_vanishes_both_routes():
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    assert det_expr(levi_data(vm, frame, frame.L).rows).is_zero()
    assert levi_det_closed_form(vm).is_zero()


def test_l1a1_closed_form_matches_engine():
    for phis in (["z1*zb1"], ["z1*zb1*u1"], [LIGHT_CONE_TUBE[2][0]]):
        vm = build(2, 1, phis)
        frame = cramer_frame(vm)
        engine = frame.L[0].apply(frame.A[0][0].conj())
        assert (engine - l1a1_closed_form(vm)).is_zero()


def test_det_closed_form_matches_engine_on_samples():
    samples = [
        ["z1*zb1 + z2*zb2"],
        ["z1*zb1*u1"],
        ["(z1 + z2)*(zb1 + zb2)"],
        ["z1*zb1 + z1^2*zb2 + zb1^2*z2"],
    ]
    for phis in samples:
        vm = build(2, 1, phis)
        frame = cramer_frame(vm)
        engine = det_expr(levi_data(vm, frame, frame.L).rows)
        assert (engine - levi_det_closed_form(vm)).is_zero()


def test_quotients_equal_when_det_vanishes():
    for spec in (LIGHT_CONE_TUBE, PRODUCT_M3XC, SUM_SQUARE):
        vm = build(*spec)
        frame = cramer_frame(vm)
        assert det_expr(levi_data(vm, frame, frame.L).rows).is_zero()
        main, holo, anti = k_quotients(vm)
        assert main == holo == anti


def test_tube_kernel_data():
    vm = build(*LIGHT_CONE_TUBE)
    kd = slant_k(vm)
    assert kd.k == pe("(z1*zb2 + zb1)/(z2*zb2 - 1)", 2, 1)
    assert kd.frame_adjust == ((gr(1), gr(0)), (gr(0), gr(1)))
    # kernel membership: Levi * (k, 1)^T = 0
    rows = kd.levi
    for r in range(2):
        assert (rows[r][0] * kd.k + rows[r][1]).is_zero()
    # kappa0 annihilates K, conj(K), conj(L1)
    assert kd.kappa0.apply(kd.K).is_zero()
    assert kd.kappa0.apply(kd.K.conj()).is_zero()
    assert kd.kappa0.apply(kd.fields[0].conj()).is_zero()
    assert kd.freeman == pe("(-1)/(z2*zb2 - 1)", 2, 1)
    assert not kd.freeman.is_zero()
    assert kd.freeman_at_point == gr(1)


def test_freeman_equals_minus_lbar_k():
    # engine fixes the sign freeman = -conj(L1)(k); vanishing status is
    # what the classifier reads, the sign is just pinned here
    for spec in (LIGHT_CONE_TUBE, PRODUCT_M3XC, SUM_SQUARE):
        vm = build(*spec)
        kd = slant_k(vm)
        lbar1 = kd.fields[0].conj()
        assert (kd.freeman + lbar1.apply(kd.k)).is_zero()


def test_freeman_degenerate_certificates():
    for spec in (PRODUCT_M3XC, SUM_SQUARE):
        vm = build(*spec)
        kd = slant_k(vm)
        assert kd.freeman.is_zero()
        assert is_cr_function(kd.k, vm)
        a1, a2 = (f.coeffs[vm.space.u_slot(0)] for f in kd.fields)
        assert is_cr_function(kd.k * a1 + a2, vm)


def test_sum_square_kernel():
    vm = build(*SUM_SQUARE)
    frame = cramer_frame(vm)
    rows = levi_data(vm, frame, frame.L).rows
    for r in range(2):
        for c in range(2):
            assert rows[r][c] == pe("2", 2, 1)
    kd = slant_k(vm)
    assert kd.k == pe("-1", 2, 1)


def test_slant_rank_mismatch():
    with pytest.raises(RankMismatchError):
        slant_k(build(*SPHERE))
    with pytest.raises(RankMismatchError):
        slant_k(build(2, 1, ["0"]))


def test_frame_adjust_when_l11_vanishes():
    # phi independent of z1 makes the (1,1) Levi entry vanish identically
    vm = build(2, 1, ["z2*zb2"])
    kd = slant_k(vm)
    assert kd.frame_adjust != ((gr(1), gr(0)), (gr(0), gr(1)))
    rows = kd.levi
    assert not rows[0][0].is_zero()
    for r in range(2):
        assert (rows[r][0] * kd.k + rows[r][1]).is_zero()
    assert kd.kappa0.apply(kd.K).is_zero()
    assert kd.freeman.is_zero()


def test_is_cr_function_basics():
    vm = build(1, 1, ["z1*zb1"])
    assert is_cr_function(pe("z1", 1, 1), vm)
    assert not is_cr_function(pe("zb1", 1, 1), vm)
    vm = build(*PRODUCT_M3XC)
    assert is_cr_function(slant_k(vm).k, vm)


def test_mu_nu_rescaling_scales_entries():
    # replacing L1 by mu*L1 and L2 by nu*L2 multiplies entry(r, c) by
    # scale_c * conj(scale_r); vanishing is untouched
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    rho = rho0(frame)[0]
    mu = pe("1 + z1*zb1", 2, 1)
    nu = pe("2 + u1^2", 2, 1)
    scaled = (frame.L[0].scale(mu), frame.L[1].scale(nu))
    base = levi_entries(rho, frame.L)
    new = levi_entries(rho, scaled)
    scale = (mu, nu)
    for r in range(2):
        for c in range(2):
            want = base[r][c] * scale[c] * scale[r].conj()
            assert (new[r][c] - want).is_zero()


def _random_real_rigid(rnd):
    sp = VarSpace(2, 1)
    acc = MultiPoly.zero(sp)
    for _ in range(3):
        expo = [0] * 5
        for _ in range(rnd.randint(1, 3)):
            expo[rnd.randrange(4)] += 1  # z and zb slots only
        coeff = gr(rnd.randint(-3, 3), rnd.randint(-3, 3))
        if coeff.is_zero():
            continue
        mono = MultiPoly.monomial(sp, tuple(expo), coeff)
        acc = acc + mono + mono.conj()
    return RationalExpr.from_poly(acc)


def test_det_routes_agree_on_random_rigid_draws():
    rnd = random.Random(11)
    for _ in range(5):
        phi = _random_real_rigid(rnd)
        text = "0" if phi.is_zero() else str(phi.num)
        vm = build(2, 1, [text])
        frame = cramer_frame(vm)
        engine = det_expr(levi_data(vm, frame, frame.L).rows)
        assert (engine - levi_det_closed_form(vm)).is_zero()


def test_transformation_law_sampled():
    rnd = random.Random(7)
    vm = build(*LIGHT_CONE_TUBE)
    frame = cramer_frame(vm)
    rho = rho0(frame)[0]
    base = levi_entries(rho, frame.L)
    for _ in range(3):
        m = [
            [gr(rnd.randint(-2, 2), rnd.randint(-2, 2)) for _ in range(2)]
            for _ in range(2)
        ]
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero():
            continue
        changed = change_frame(frame.L, m)
        new = levi_entries(rho, changed)
        for r in range(2):
            for c in range(2):
                want = RationalExpr.zero(vm.space)
                for j in range(2):
                    for kcol in range(2):
                        term = base[j][kcol].scale(m[r][j].conj() * m[c][kcol])
                        want = want + term
                assert (new[r][c] - want).is_zero()
