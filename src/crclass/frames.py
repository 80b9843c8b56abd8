"""CR frames, vector fields, one-forms, and Lie brackets.

Vector fields live on the ambient coordinates (z, zb, u) and are stored
as coefficient tuples against d/dz_1..d/dz_n, d/dzb_1..d/dzb_n,
d/du_1..d/du_c in that slot order. The tangential frame L_1..L_n is
produced by solving the c x c Cramer system

    sum_l (i*delta_{jl} + d(phi_j)/d(u_l)) * A_i^l = -d(phi_j)/d(z_i)

so that L_i = d/dz_i + sum_l A_i^l d/du_l annihilates the defining
equations to first order along M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DependentFrameError, FrameSingularError, NotInSpanError
from .gaussian import GR_I, GaussianRational
from .linalg import (
    RankCertificate,
    cramer_solve,
    generic_rank_matrix,
    rank_at_point_matrix,
)
from .manifold import ValidatedManifold
from .parser import expr_to_text
from .poly import VarSpace
from .ratfunc import RationalExpr


@dataclass(frozen=True, slots=True)
class VectorField:
    """First-order operator sum_d coeffs[d] * d/d(var_d)."""

    space: VarSpace
    coeffs: tuple[RationalExpr, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.space.nvars:
            raise ValueError("coefficient count must match the variable count")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f: RationalExpr) -> RationalExpr:
        out = None
        for slot, coeff in enumerate(self.coeffs):
            if coeff.is_zero():
                continue
            term = coeff * f.diff(slot)
            out = term if out is None else out + term
        return RationalExpr.zero(self.space) if out is None else out

    def conj(self) -> "VectorField":
        conj_coeffs = [RationalExpr.zero(self.space)] * self.space.nvars
        out = list(conj_coeffs)
        for slot, coeff in enumerate(self.coeffs):
            out[self.space.conj_slot(slot)] = coeff.conj()
        return VectorField(self.space, tuple(out))

    def scale(self, factor: RationalExpr | GaussianRational) -> "VectorField":
        if isinstance(factor, GaussianRational):
            return VectorField(self.space, tuple(c.scale(factor) for c in self.coeffs))
        return VectorField(self.space, tuple(factor * c for c in self.coeffs))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.space, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.space, tuple(-c for c in self.coeffs))

    def eval(self, coords: tuple[GaussianRational, ...]) -> tuple[GaussianRational, ...]:
        return tuple(c.eval(coords) for c in self.coeffs)

    def render(self) -> str:
        parts = []
        for slot, coeff in enumerate(self.coeffs):
            if coeff.is_zero():
                continue
            name = self.space.var_name(slot)
            if coeff.is_one():
                parts.append(f"d/d{name}")
            else:
                parts.append(f"({expr_to_text(coeff)}) d/d{name}")
        if not parts:
            return "0"
        return " + ".join(parts)


@dataclass(frozen=True, slots=True)
class OneForm:
    """Covector sum_d coeffs[d] * d(var_d); pairs with VectorField.apply."""

    space: VarSpace
    coeffs: tuple[RationalExpr, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.space.nvars:
            raise ValueError("coefficient count must match the variable count")

    def apply(self, field: VectorField) -> RationalExpr:
        out = RationalExpr.zero(self.space)
        for w, x in zip(self.coeffs, field.coeffs):
            if w.is_zero() or x.is_zero():
                continue
            out = out + w * x
        return out

    def render(self) -> str:
        parts = []
        for slot, coeff in enumerate(self.coeffs):
            if coeff.is_zero():
                continue
            name = self.space.var_name(slot)
            if coeff.is_one():
                parts.append(f"d{name}")
            else:
                parts.append(f"({expr_to_text(coeff)}) d{name}")
        if not parts:
            return "0"
        return " + ".join(parts)


def bracket_component(x: VectorField, y: VectorField, d: int) -> RationalExpr:
    """The d/d(var_d) coefficient of [X, Y]: X(Y_d) - Y(X_d)."""
    return x.apply(y.coeffs[d]) - y.apply(x.coeffs[d])


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] = X(Y_d) - Y(X_d) against each coordinate direction d."""
    space = x.space
    return VectorField(
        space, tuple(bracket_component(x, y, d) for d in range(space.nvars))
    )


def bracket_with_conj(x: VectorField) -> VectorField:
    """[X, conj X] from one apply per slot.

    conj(X)(X_d) = conj(X(conj(X)_{d*})) for the conjugate slot d*, so
    with W_e = X(conj(X)_e) the bracket is W_d - conj(W_{d*}).
    """
    space = x.space
    w = [x.apply(c) for c in x.conj().coeffs]
    return VectorField(
        space, tuple(w[d] - w[space.conj_slot(d)].conj() for d in range(space.nvars))
    )


@dataclass(frozen=True, slots=True)
class FrameData:
    """The tangential frame of a validated manifold."""

    manifold: ValidatedManifold
    A: tuple[tuple[RationalExpr, ...], ...]  # A[i][l], n rows, c columns
    L: tuple[VectorField, ...]
    Lbar: tuple[VectorField, ...]


def cramer_frame(vm: ValidatedManifold) -> FrameData:
    space = vm.space
    n, c = vm.n, vm.c
    system = vm.cramer
    den = vm.cramer_det
    if den.is_zero():
        raise FrameSingularError("det(i*I + Phi_u) vanishes identically")
    a_rows = []
    fields = []
    for i in range(n):
        rhs = [-vm.phi[j].diff(space.z_slot(i)) for j in range(c)]
        a_i = cramer_solve(system, rhs, den)
        a_rows.append(a_i)
        coeffs = [RationalExpr.zero(space)] * space.nvars
        coeffs[space.z_slot(i)] = RationalExpr.one(space)
        for l in range(c):
            coeffs[space.u_slot(l)] = a_i[l]
        fields.append(VectorField(space, tuple(coeffs)))
    l_fields = tuple(fields)
    return FrameData(
        manifold=vm,
        A=tuple(a_rows),
        L=l_fields,
        Lbar=tuple(f.conj() for f in l_fields),
    )


def rho0(frame: FrameData) -> tuple[OneForm, ...]:
    """Characteristic coforms rho0_j = du_j - sum_i A_i^j dz_i - conj terms.

    Each rho0_j annihilates every L_i and Lbar_i and pairs with du_j as 1.
    """
    space = frame.manifold.space
    n, c = frame.manifold.n, frame.manifold.c
    forms = []
    for j in range(c):
        coeffs = [RationalExpr.zero(space)] * space.nvars
        coeffs[space.u_slot(j)] = RationalExpr.one(space)
        for i in range(n):
            coeffs[space.z_slot(i)] = -frame.A[i][j]
            coeffs[space.zb_slot(i)] = -frame.A[i][j].conj()
        forms.append(OneForm(space, tuple(coeffs)))
    return tuple(forms)


def characteristic_field(frame: FrameData) -> VectorField:
    """T = i[L_1, Lbar_1]; real whenever n = 1."""
    return bracket_with_conj(frame.L[0]).scale(GR_I)


def named_brackets(L: Sequence[VectorField], c: int) -> Iterator[tuple[str, VectorField]]:
    """The frames L and conj(L) and the brackets the decision tree reads,
    in order, lazily.

    n = 1: L1, Lb1, T = i[L,Lb], then [L,T] and [Lb,T] when c >= 2 and
    [L,[L,T]] when c = 3. n = 2: L1, L2, Lb1, Lb2, then i[L_c, Lb_r] row
    by row (r outer), the brackets the Levi entries pair with rho0.
    Each bracket is taken only when the consumer asks for it. Conjugation
    saves brackets: T and the diagonal i[L_c, Lb_c] come from
    bracket_with_conj, [Lb,T] = conj([L,T]) because T is real, and
    i[L1,Lb2] = conj(i[L2,Lb1]).
    """
    Lbar = [f.conj() for f in L]
    for i, f in enumerate(L):
        yield f"L{i + 1}", f
    for i, f in enumerate(Lbar):
        yield f"Lb{i + 1}", f
    if len(L) == 1:
        l = L[0]
        t = bracket_with_conj(l).scale(GR_I)
        yield "T", t
        if c >= 2:
            lt = lie_bracket(l, t)
            yield "[L,T]", lt
            yield "[Lb,T]", lt.conj()
            if c == 3:
                yield "[L,[L,T]]", lie_bracket(l, lt)
        return
    below: dict[tuple[int, int], VectorField] = {}
    for r, lb in enumerate(Lbar):
        for col, l in enumerate(L):
            if col == r:
                br = bracket_with_conj(l).scale(GR_I)
            elif (r, col) in below:
                br = below.pop((r, col))
            else:
                br = lie_bracket(l, lb).scale(GR_I)
                below[(col, r)] = br.conj()
            yield f"i[L{col + 1},Lb{r + 1}]", br


def field_matrix(fields: Sequence[VectorField]) -> list[list[RationalExpr]]:
    """Coefficient matrix: rows are coordinate directions, columns fields."""
    space = fields[0].space
    return [
        [f.coeffs[d] for f in fields]
        for d in range(space.nvars)
    ]


def generic_rank(fields: Sequence[VectorField]) -> RankCertificate:
    if not fields:
        return RankCertificate(0, (), (), None)
    return generic_rank_matrix(field_matrix(fields))


def rank_at_point(
    fields: Sequence[VectorField], coords: tuple[GaussianRational, ...]
) -> int:
    values = [f.eval(coords) for f in fields]
    # eval gives one row per field; transpose to directions-by-fields
    return rank_at_point_matrix(list(zip(*values)))


def decompose_in_frame(
    target: VectorField,
    fields: Sequence[VectorField],
    witness: RankCertificate | None = None,
) -> tuple[RationalExpr, ...]:
    """Coefficients lambda with target = sum lambda_k fields[k], exactly.

    Solves by Cramer on the coordinate rows of the generic_rank witness
    minor and verifies that the residual vanishes in every row. The
    coefficients are unique, so the choice of rows cannot show in them.
    A caller that already ranked `fields` passes that certificate as
    `witness`; otherwise the fields are ranked here.
    """
    k = len(fields)
    if k == 0:
        if target.is_zero():
            return ()
        raise NotInSpanError("nonzero field cannot be decomposed in an empty frame")
    cert = generic_rank(fields) if witness is None else witness
    if cert.rank < k:
        raise DependentFrameError("frame fields are generically dependent")
    mat = field_matrix(fields)
    lams = cramer_solve([mat[r] for r in cert.rows], [target.coeffs[r] for r in cert.rows])
    residual = target
    for lam, f in zip(lams, fields):
        residual = residual - f.scale(lam)
    if not residual.is_zero():
        raise NotInSpanError("target field is not in the span of the frame")
    return lams


def change_frame(
    fields: Sequence[VectorField],
    matrix: Sequence[Sequence[RationalExpr | GaussianRational]],
) -> tuple[VectorField, ...]:
    """New_i = sum_j matrix[i][j] * fields[j]; matrix must be invertible."""
    space = fields[0].space
    rows = []
    for row in matrix:
        conv = [
            RationalExpr.const(space, v) if isinstance(v, GaussianRational) else v
            for v in row
        ]
        rows.append(conv)
    if len(rows) != len(fields) or any(len(r) != len(fields) for r in rows):
        raise ValueError("frame-change matrix must be square of matching size")
    if generic_rank_matrix(rows).rank < len(rows):
        raise DependentFrameError("frame-change matrix is singular")
    out = []
    for row in rows:
        acc = None
        for coeff, f in zip(row, fields):
            term = f.scale(coeff)
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)
