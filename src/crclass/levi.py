"""Levi data, kernel data, and the closed-form oracles.

levi_data reads the Levi rows entry(r, c) = rho0(i*[L_c, Lbar_r]) of
frame fields (row r is indexed by the conjugated member), their rank
certificate, the rank at the base point and, on type (2,1) at Levi rank
1, the kernel data, which slant_k returns for a frame. The closed forms
l1a1_closed_form, levi_det_closed_form and k_quotients reach the same
quantities from the derivatives of phi, apart from the bracket engine on
purpose: tests compare the two routes.

Sign convention: the engine value of kappa0([K, Lbar_1]) works out to
-Lbar_1(k) on the d/dz_1 component. We keep the engine sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .errors import DimensionError, InternalAssertion, RankMismatchError
from .frames import (
    FrameData,
    OneForm,
    VectorField,
    bracket_component,
    change_frame,
    cramer_frame,
    named_brackets,
    rho0,
)
from .gaussian import GR_I, GR_ONE, GR_ZERO, GaussianRational, gr
from .linalg import (
    RankCertificate,
    cramer_solve,
    generic_rank_matrix,
    rank_at_point_matrix,
)
from .manifold import ValidatedManifold
from .ratfunc import PoleError, RationalExpr

LeviRows = tuple[tuple[RationalExpr, ...], ...]

ConstMatrix = tuple[tuple[GaussianRational, ...], ...]

IDENTITY_2: ConstMatrix = ((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE))

# Tried in order when the (1,1) Levi entry vanishes identically; the
# first member making it nonzero is recorded in KernelData.frame_adjust.
ADJUST_CANDIDATES: tuple[ConstMatrix, ...] = (
    ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO)),
    ((GR_ONE, GR_ONE), (GR_ZERO, GR_ONE)),
    ((GR_ONE, GR_I), (GR_ZERO, GR_ONE)),
)


def levi_entries(rho: OneForm, fields: Sequence[VectorField]) -> LeviRows:
    """entry(r, c) = rho(i*[fields[c], conj(fields[r])])."""
    n = len(fields)
    # past the 2n frame members, the tower for c = 1 is exactly the n*n
    # brackets i[L_c, Lb_r], row by row
    tower = named_brackets(fields, 1)
    values = [rho.apply(br) for _, br in islice(tower, 2 * n, None)]
    return tuple(tuple(values[r * n:(r + 1) * n]) for r in range(n))


class _Derivs:
    """First and second phi-derivatives for the (2,1) closed forms."""

    def __init__(self, vm: ValidatedManifold) -> None:
        if (vm.n, vm.c) != (2, 1):
            raise DimensionError("closed forms are for n = 2, c = 1")
        sp = vm.space
        p = vm.phi[0]
        z1, z2 = sp.z_slot(0), sp.z_slot(1)
        zb1, zb2 = sp.zb_slot(0), sp.zb_slot(1)
        u = sp.u_slot(0)
        self.space = sp
        self.z1 = p.diff(z1)
        self.z2 = p.diff(z2)
        self.zb1 = p.diff(zb1)
        self.zb2 = p.diff(zb2)
        self.u = p.diff(u)
        self.z1zb1 = self.z1.diff(zb1)
        self.z1zb2 = self.z1.diff(zb2)
        self.z2zb1 = self.z2.diff(zb1)
        self.z2zb2 = self.z2.diff(zb2)
        self.z1u = self.z1.diff(u)
        self.z2u = self.z2.diff(u)
        self.zb1u = self.zb1.diff(u)
        self.zb2u = self.zb2.diff(u)
        self.uu = self.u.diff(u)
        self.i = RationalExpr.const(sp, GR_I)
        self.one = RationalExpr.one(sp)


def l1a1_closed_form(vm: ValidatedManifold) -> RationalExpr:
    """Direct formula for L_1(conj(A_1)), avoiding the bracket engine."""
    d = _Derivs(vm)
    num = (
        -d.z1zb1 * (d.one + d.u * d.u)
        + d.zb1 * d.z1u * (d.i + d.u)
        + d.z1 * d.zb1u * (-d.i + d.u)
        - d.z1 * d.zb1 * d.uu
    )
    den = (d.i + d.u) * (-d.i + d.u) * (-d.i + d.u)
    return num / den


def levi_det_closed_form(vm: ValidatedManifold) -> RationalExpr:
    """Direct formula for the Levi determinant, term by term."""
    d = _Derivs(vm)
    s = (
        d.z2zb2 * d.z1zb1
        - d.z2zb1 * d.z1zb2
        + d.z2zb1 * d.zb2 * d.z1u * d.u
        - d.z2zb1 * d.zb2 * d.z1 * d.uu
        - d.zb1 * d.z2u * d.z1 * d.zb2u
        + d.zb1 * d.z2u * d.u * d.z1zb2
        - d.z2 * d.zb1u * d.zb2 * d.z1u
        - d.z2 * d.zb1 * d.uu * d.z1zb2
        + d.z2 * d.zb1u * d.u * d.z1zb2
        - d.z2zb2 * d.zb1 * d.z1u * d.u
        + d.z2zb2 * d.z1 * d.zb1 * d.uu
        - d.z2zb2 * d.z1 * d.zb1u * d.u
        + d.z2zb1 * d.z1 * d.zb2u * d.u
        + d.z2 * d.zb2u * d.zb1 * d.z1u
        - d.z2 * d.zb2u * d.z1zb1 * d.u
        + d.zb2 * d.z2u * d.z1 * d.zb1u
        - d.zb2 * d.z2u * d.u * d.z1zb1
        + d.zb2 * d.z2 * d.uu * d.z1zb1
        + (
            d.z2zb2 * d.z1 * d.zb1u
            + d.zb1 * d.z2u * d.z1zb2
            + d.z2zb1 * d.zb2 * d.z1u
            + d.z2 * d.zb2u * d.z1zb1
        ) * d.i
        - (
            d.zb2 * d.z2u * d.z1zb1
            + d.z2zb1 * d.z1 * d.zb2u
            + d.z2 * d.zb1u * d.z1zb2
            + d.z2zb2 * d.zb1 * d.z1u
        ) * d.i
        - d.z2zb1 * d.z1zb2 * d.u * d.u
        + d.z2zb2 * d.z1zb1 * d.u * d.u
    )
    four = RationalExpr.const(d.space, gr(4))
    plus = d.i + d.u
    minus = -d.i + d.u
    den = plus * plus * plus * minus * minus * minus
    return four * s / den


def k_quotients(
    vm: ValidatedManifold, frame: FrameData | None = None
) -> tuple[RationalExpr, RationalExpr, RationalExpr]:
    """The slant function three ways:

    -(L2(Ab1) - Lb1(A2)) / (L1(Ab1) - Lb1(A1)),
    -L2(Ab1) / L1(Ab1),
    -Lb1(A2) / Lb1(A1).

    All three agree whenever the Levi determinant vanishes identically.
    """
    if (vm.n, vm.c) != (2, 1):
        raise DimensionError("slant quotients need n = 2, c = 1")
    if frame is None:
        frame = cramer_frame(vm)
    l1, l2 = frame.L
    lb1 = frame.Lbar[0]
    a1, a2 = frame.A[0][0], frame.A[1][0]
    ab1 = a1.conj()
    main = -((l2.apply(ab1) - lb1.apply(a2)) / (l1.apply(ab1) - lb1.apply(a1)))
    holo = -(l2.apply(ab1) / l1.apply(ab1))
    anti = -(lb1.apply(a2) / lb1.apply(a1))
    return main, holo, anti


@dataclass(frozen=True, slots=True)
class KernelData:
    """Levi-kernel generator data for generic rank 1 on (2,1) manifolds.

    The working frame is fields = frame_adjust applied to the frame the
    ranks were read from; k = -entry(1,2)/entry(1,1) there,
    K = k*fields[0] + fields[1], kappa0 is the combination of the coframe
    dual to the z-parts of fields that vanishes on K, conj(K), and
    conj(fields[0]), and freeman = kappa0([K, conj(fields[0])]).
    """

    k: RationalExpr
    K: VectorField
    kappa0: OneForm
    frame_adjust: ConstMatrix
    freeman: RationalExpr
    fields: tuple[VectorField, VectorField]
    levi: LeviRows
    freeman_at_point: GaussianRational | None


@dataclass(frozen=True, slots=True)
class LeviData:
    """Levi rows of a set of frame fields and everything read from them."""

    rows: LeviRows
    certificate: RankCertificate
    point_rank: int
    kernel: KernelData | None


def levi_data(
    vm: ValidatedManifold, frame: FrameData, fields: Sequence[VectorField]
) -> LeviData:
    """Levi rows of fields against rho0_1 of frame, their generic rank
    certificate, the rank at the base point, and, on type (2,1) at
    generic rank 1, the kernel data built from the same fields.
    """
    rho = rho0(frame)[0]
    rows = levi_entries(rho, fields)
    cert = generic_rank_matrix(rows)
    coords = vm.point_coords()
    point_rank = rank_at_point_matrix([[e.eval(coords) for e in r] for r in rows])
    kernel = None
    if cert.rank == 1 and (vm.n, vm.c) == (2, 1):
        kernel = _kernel_data(vm, rho, fields, rows)
    return LeviData(rows, cert, point_rank, kernel)


def slant_k(
    vm: ValidatedManifold, frame: FrameData | None = None
) -> KernelData:
    """Kernel generator K = k*L_1 + L_2 for generic Levi rank exactly 1.

    Reads levi_data on the frame (the Cramer frame by default).
    """
    if (vm.n, vm.c) != (2, 1):
        raise DimensionError("kernel data needs n = 2, c = 1")
    if frame is None:
        frame = cramer_frame(vm)
    data = levi_data(vm, frame, frame.L)
    if data.kernel is None:
        raise RankMismatchError(
            f"kernel data needs generic Levi rank 1, found {data.certificate.rank}"
        )
    return data.kernel


def _kernel_data(
    vm: ValidatedManifold,
    rho: OneForm,
    fields: Sequence[VectorField],
    rows: LeviRows,
) -> KernelData:
    """Kernel data of fields, whose Levi rows have generic rank 1.

    If entry(1,1) vanishes identically, applies the first member of
    ADJUST_CANDIDATES that makes it nonzero and records that matrix;
    otherwise records the identity.
    """
    space = vm.space
    adjust = IDENTITY_2
    if rows[0][0].is_zero():
        for cand in ADJUST_CANDIDATES:
            new_fields = change_frame(fields, cand)
            new_rows = levi_entries(rho, new_fields)
            if not new_rows[0][0].is_zero():
                fields, rows, adjust = new_fields, new_rows, cand
                break
        else:
            raise InternalAssertion(
                "no candidate frame change exposed a nonzero (1,1) Levi entry "
                "despite generic rank 1"
            )
    k = -(rows[0][1] / rows[0][0])
    big_k = fields[0].scale(k) + fields[1]
    if not (rows[1][0] * k + rows[1][1]).is_zero():
        raise InternalAssertion("kernel membership failed in the second Levi row")
    # kappa0 = zeta^1 - k*zeta^2 for the coframe zeta dual to the z-parts
    # Z of the fields (invertible: change_frame admits no singular matrix),
    # so its z-coefficients w solve Z w = (1, -k): kappa0 is 1 on fields[0]
    # and -k on fields[1]
    z = [[f.coeffs[space.z_slot(col)] for col in range(2)] for f in fields]
    w = cramer_solve(z, [RationalExpr.one(space), -k])
    coeffs = [RationalExpr.zero(space)] * space.nvars
    coeffs[space.z_slot(0)], coeffs[space.z_slot(1)] = w
    kappa0 = OneForm(space, tuple(coeffs))
    lbar1 = fields[0].conj()
    if not kappa0.apply(big_k).is_zero():
        raise InternalAssertion("kappa0 does not annihilate K")
    if not kappa0.apply(lbar1).is_zero():
        raise InternalAssertion("kappa0 does not annihilate conj(L_1)")
    if not kappa0.apply(big_k.conj()).is_zero():
        raise InternalAssertion("kappa0 does not annihilate conj(K)")
    # kappa0 has z-coefficients only, so only the z-slots of [K, conj(L_1)]
    # are built
    fre = RationalExpr.zero(space)
    for col in range(2):
        d = space.z_slot(col)
        fre = fre + kappa0.coeffs[d] * bracket_component(big_k, lbar1, d)
    try:
        fre_at = fre.eval(vm.point_coords())
    except PoleError:
        fre_at = None
    return KernelData(
        k=k,
        K=big_k,
        kappa0=kappa0,
        frame_adjust=adjust,
        freeman=fre,
        fields=(fields[0], fields[1]),
        levi=rows,
        freeman_at_point=fre_at,
    )
