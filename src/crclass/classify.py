"""Six-class decision procedure over bracket ranks and Levi/Freeman data.

Class conditions are decided on generic rank (identical-vanishing tests
of minors), matching the relocalization convention: the verdict speaks
about a generic point. The base point's own ranks are reported next to
the generic ones, and sigma_flag marks a base point sitting inside the
exceptional locus where some rank drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .errors import DependentFrameError, DimensionError, InternalAssertion
from .frames import (
    FrameData,
    VectorField,
    change_frame,
    cramer_frame,
    decompose_in_frame,
    generic_rank,
    lie_bracket,
    named_brackets,
    rank_at_point,
)
from .gaussian import GaussianRational
from .levi import KernelData, levi_data
from .linalg import RankCertificate, raising_row
from .manifold import ValidatedManifold
from .ratfunc import RationalExpr, cleared_column

VERDICT_TEXT = {
    "ClassI": "Class I",
    "ClassII": "Class II",
    "ClassIII1": "Class III_1",
    "ClassIII2": "Class III_2",
    "ClassIV1": "Class IV_1",
    "ClassIV2": "Class IV_2",
    "LeviFlat": "Levi-flat",
    "DegenerateProduct(M3xR)": "Degenerate product M3 x R",
    "DegenerateProduct(M3xR2)": "Degenerate product M3 x R^2",
    "DegenerateProduct(M4xR)": "Degenerate product M4 x R",
    "DegenerateProduct(M3xC)": "Degenerate product M3 x C",
}

CERTIFICATE_TEXT = {
    "LeviFlat": "locally a product C^n x R^c; all classifying brackets degenerate",
    "DegenerateProduct(M3xR)": (
        "splits off one flat real parameter; the classification reduces to a "
        "nondegenerate 3-dimensional hypersurface-type manifold"
    ),
    "DegenerateProduct(M3xR2)": (
        "splits off two flat real parameters; the classification reduces to a "
        "nondegenerate 3-dimensional hypersurface-type manifold"
    ),
    "DegenerateProduct(M4xR)": (
        "splits off one flat real parameter; the classification reduces to a "
        "4-dimensional manifold of type (1,2)"
    ),
    "DegenerateProduct(M3xC)": (
        "splits off a complex-line factor; the classification reduces to a "
        "nondegenerate 3-dimensional hypersurface-type manifold"
    ),
}


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    verdict: str
    generic_ranks: dict[str, int]
    point_ranks: dict[str, int]
    witnesses: dict[str, RankCertificate]
    kernel: KernelData | None
    sigma_flag: bool
    observational_d: RationalExpr | None
    certificate: str


# The deepest bracket depth lie_hull_rank tabulates. The rank grows at every
# depth until it stops for good and cannot pass 2n + c, so it is constant
# from depth c + 1 on; deeper tables only repeat it.
MAX_HULL_DEPTH = 64


@dataclass(frozen=True, slots=True)
class HullResult:
    rank: int
    stabilized_at: int | None
    ranks_by_depth: tuple[int, ...]


# rank labels name the one frame pair of n = 1 without its index
_RANK_LABELS = {"L1": "L", "Lb1": "Lb"}
_QUAD = "L,Lb,T,[L,T]"


def _apply_change(
    frame: FrameData,
    matrix: Sequence[Sequence[RationalExpr | GaussianRational]] | None,
) -> tuple[VectorField, ...]:
    if matrix is None:
        return frame.L
    return change_frame(frame.L, matrix)


def classify(
    vm: ValidatedManifold,
    frame_change: Sequence[Sequence[RationalExpr | GaussianRational]] | None = None,
) -> ClassificationReport:
    """Run the decision tree for the manifold's (n, c) type.

    frame_change optionally post-composes the Cramer frame with a fixed
    invertible matrix before all rank computations, and the kernel data
    are built from the changed frame; the verdict is invariant under
    such changes.
    """
    frame = cramer_frame(vm)
    if vm.n == 1:
        return _classify_hypersurface_like(vm, frame, frame_change)
    return _classify_five_dim_c1(vm, frame, frame_change)


def _observational_d(
    quad: Sequence[VectorField], lbt: VectorField, witness: RankCertificate
) -> RationalExpr:
    """The [Lb,T] coefficient d on [L,T] in the frame {L, Lb, T, [L,T]}.

    witness is the tree's rank certificate of the quad.
    """
    try:
        coeffs = decompose_in_frame(lbt, quad, witness)
    except DependentFrameError as exc:
        raise InternalAssertion(
            "quad frame {L, Lb, T, [L,T]} is not of rank 4 on a Class II / "
            "Class III_2 verdict"
        ) from exc
    d = coeffs[3]
    if not (d * d.conj()).is_one():
        raise InternalAssertion("decomposition coefficient d has d*conj(d) != 1")
    return d


def _classify_hypersurface_like(
    vm: ValidatedManifold,
    frame: FrameData,
    frame_change,
) -> ClassificationReport:
    fields = _apply_change(frame, frame_change)
    tower = named_brackets(fields, vm.c)
    coords = vm.point_coords()
    generic_ranks: dict[str, int] = {}
    point_ranks: dict[str, int] = {}
    witnesses: dict[str, RankCertificate] = {}
    names: list[str] = []
    system: list[VectorField] = []

    def rank(size: int) -> int:
        """Record the ranks of the first `size` tower members; pull as needed."""
        while len(system) < size:
            name, f = next(tower)
            names.append(_RANK_LABELS.get(name, name))
            system.append(f)
        key = ",".join(names)
        cert = generic_rank(system)
        generic_ranks[key] = cert.rank
        point_ranks[key] = rank_at_point(system, coords)
        witnesses[key] = cert
        return cert.rank

    verdict: str
    obs_d: RationalExpr | None = None
    r = rank(3)
    if vm.c == 1:
        verdict = "ClassI" if r == 3 else "LeviFlat"
    elif r == 2:
        verdict = "LeviFlat"
    else:
        rank(4)
        r4 = rank(5)
        if vm.c == 2:
            if r4 == 4:
                verdict = "ClassII"
                obs_d = _observational_d(system[:4], system[4], witnesses[_QUAD])
            else:
                verdict = "DegenerateProduct(M3xR)"
        elif r4 == 3:
            verdict = "DegenerateProduct(M3xR2)"
        elif r4 == 5:
            verdict = "ClassIII1"
        elif rank(6) == 5:
            verdict = "ClassIII2"
            obs_d = _observational_d(system[:4], system[4], witnesses[_QUAD])
        else:
            verdict = "DegenerateProduct(M4xR)"

    sigma = any(point_ranks[k] < generic_ranks[k] for k in generic_ranks)
    certificate = CERTIFICATE_TEXT.get(
        verdict, f"{VERDICT_TEXT[verdict]}: bracket ranks as recorded"
    )
    return ClassificationReport(
        verdict=verdict,
        generic_ranks=generic_ranks,
        point_ranks=point_ranks,
        witnesses=witnesses,
        kernel=None,
        sigma_flag=sigma,
        observational_d=obs_d,
        certificate=certificate,
    )


def _classify_five_dim_c1(
    vm: ValidatedManifold,
    frame: FrameData,
    frame_change,
) -> ClassificationReport:
    if vm.c != 1:
        raise DimensionError("n = 2 requires c = 1")
    levi = levi_data(vm, frame, _apply_change(frame, frame_change))
    rank = levi.certificate.rank
    kernel = levi.kernel
    if rank == 2:
        verdict = "ClassIV1"
    elif rank == 0:
        verdict = "LeviFlat"
    else:
        assert kernel is not None
        verdict = (
            "DegenerateProduct(M3xC)" if kernel.freeman.is_zero() else "ClassIV2"
        )
    if verdict == "ClassIV2":
        at_point = kernel.freeman_at_point
        if at_point is None:
            note = "freeman value at the base point: pole"
        elif at_point.is_zero():
            note = "freeman vanishes at the base point"
        else:
            note = f"freeman at the base point = {at_point}"
        certificate = f"freeman invariant not identically zero; {note}"
    else:
        certificate = CERTIFICATE_TEXT.get(
            verdict, f"{VERDICT_TEXT[verdict]}: Levi rank as recorded"
        )
    return ClassificationReport(
        verdict=verdict,
        generic_ranks={"Levi": rank},
        point_ranks={"Levi": levi.point_rank},
        witnesses={"Levi": levi.certificate},
        kernel=kernel,
        sigma_flag=levi.point_rank < rank,
        observational_d=None,
        certificate=certificate,
    )


def lie_hull_rank(vm: ValidatedManifold, max_depth: int = 4) -> HullResult:
    """Generic rank of iterated brackets of the frame, depth by depth.

    Depth 1 is {L_i, conj(L_i)}; depth d+1 adds the brackets of these
    generators against the depth-d brackets. The probe keeps a basis of
    independent fields instead of every bracket. By Leibniz,
    [g, sum f_k X_k] = sum g(f_k) X_k + sum f_k [g, X_k], so the span at
    depth d+1 is the span at depth d plus the brackets of the generators
    with the fields depth d added to the basis; a bracket joins the basis
    only when it raises the generic rank. The ranks therefore equal those
    of the full bracket tables.

    The basis keeps its cleared columns and the rows of a nonzero maximal
    minor; a bracket raises the rank exactly when that minor has a
    nonzero extension by one more row and the bracket's column (the
    Schur complement step of linalg.generic_rank_matrix, run by
    linalg.raising_row), so the basis is never ranked again.

    Once the rank reaches 2n + c, or a depth adds no field, the span is
    the same at every later depth, so the remaining depths repeat the
    rank without bracketing. For the same reason stabilized_at, the depth
    where the final constant plateau of the rank table starts when that
    is before max_depth (None otherwise), is a proof of stabilization:
    the plateau means some depth added nothing.
    """
    if not 1 <= max_depth <= MAX_HULL_DEPTH:
        raise ValueError(f"max_depth must be between 1 and {MAX_HULL_DEPTH}")
    frame = cramer_frame(vm)
    gens = list(frame.L) + list(frame.Lbar)
    columns = [cleared_column(f.coeffs) for f in gens]
    # on the z and zb rows the generators' columns are diagonal, with the
    # nonzero clearing factors on the diagonal
    rows = list(range(len(gens)))
    rank = len(gens)
    ranks = [rank]
    full = vm.space.nvars
    newest = gens
    while len(ranks) < max_depth and newest and rank < full:
        added = []
        # [y, g] = -[g, y], so depth 2 takes each pair of generators once
        pairs = combinations(gens, 2) if newest is gens else product(gens, newest)
        for g, y in pairs:
            if rank == full:
                break
            br = lie_bracket(g, y)
            if br.is_zero():
                continue
            column = cleared_column(br.coeffs)
            row = raising_row(columns + [column], rows)
            if row is not None:
                columns.append(column)
                rows.append(row)
                added.append(br)
                rank += 1
        ranks.append(rank)
        newest = added
    ranks.extend([rank] * (max_depth - len(ranks)))
    plateau = max_depth
    while plateau > 1 and ranks[plateau - 2] == ranks[-1]:
        plateau -= 1
    stabilized = plateau if plateau < max_depth else None
    return HullResult(
        rank=ranks[-1], stabilized_at=stabilized, ranks_by_depth=tuple(ranks)
    )
