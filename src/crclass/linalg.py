"""Exact linear algebra over the rational-function field.

Matrices are lists of rows. Every determinant, whether a rank witness,
a Cramer numerator or a plain det, comes from one memoised expansion
along the first row (`_minor`), on polynomial or rational entries.
Generic rank is decided by exhibiting a nonzero minor; every rank claim
carries a witness (row indices, column indices, and the minor itself)
so it can be rechecked independently. Columns are cleared of
denominators first, which cannot change rank: each column is scaled by
a nonzero polynomial. Ranks at a point use forward elimination over Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gaussian import GaussianRational, gr
from .poly import MultiPoly
from .ratfunc import RationalExpr, cleared_column

Entry = MultiPoly | RationalExpr


def _minor(
    rows: Sequence[Sequence[Entry]],
    row_idx: tuple[int, ...],
    col_idx: tuple[int, ...],
    cache: dict,
) -> Entry:
    """Determinant of rows[row_idx][col_idx], MultiPoly or RationalExpr
    entries, by expansion along the first selected row. Zero entries are
    skipped and every sub-minor is cached under its (rows, cols) tuples,
    so minors that share rows and columns expand them once.
    """
    key = (row_idx, col_idx)
    hit = cache.get(key)
    if hit is not None:
        return hit
    top = rows[row_idx[0]]
    if len(row_idx) == 1:
        value = top[col_idx[0]]
    else:
        first = top[col_idx[0]]
        value = type(first).zero(first.space)
        rest = row_idx[1:]
        for pos, col in enumerate(col_idx):
            entry = top[col]
            if entry.is_zero():
                continue
            sub_cols = col_idx[:pos] + col_idx[pos + 1 :]
            term = entry * _minor(rows, rest, sub_cols, cache)
            value = value - term if pos % 2 == 1 else value + term
    cache[key] = value
    return value


def det_expr(rows: Sequence[Sequence[RationalExpr]]) -> RationalExpr:
    """Determinant of a square RationalExpr matrix."""
    size = len(rows)
    if size == 0:
        raise ValueError("empty matrix has no determinant")
    if any(len(r) != size for r in rows):
        raise ValueError("determinant needs a square matrix")
    return _minor(rows, tuple(range(size)), tuple(range(size)), {})


def det_poly(
    rows: Sequence[Sequence[MultiPoly]],
    row_idx: tuple[int, ...],
    col_idx: tuple[int, ...],
    cache: dict | None = None,
) -> MultiPoly:
    """Determinant of the selected square submatrix of a MultiPoly matrix."""
    if len(row_idx) != len(col_idx):
        raise ValueError("minor needs equally many rows and columns")
    return _minor(rows, row_idx, col_idx, {} if cache is None else cache)


def cramer_solve(
    rows: Sequence[Sequence[RationalExpr]],
    rhs: Sequence[RationalExpr],
    den: RationalExpr | None = None,
) -> tuple[RationalExpr, ...]:
    """The x with rows . x = rhs, for an invertible square matrix.

    Cramer's rule on the matrix with rhs appended as a last column: x_j is
    the minor that takes column j out and rhs in, over den = det(rows)
    (computed unless given). All these minors share one cache, so the
    sub-minors off the rhs column are expanded once for all of them.
    """
    size = len(rows)
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    all_rows = tuple(range(size))
    cache: dict = {}
    if den is None:
        den = _minor(augmented, all_rows, all_rows, cache)
    out = []
    for j in range(size):
        # rhs sits last here, size - 1 - j column swaps from position j
        num = _minor(augmented, all_rows, all_rows[:j] + all_rows[j + 1 :] + (size,), cache)
        out.append((-num if (size - 1 - j) % 2 else num) / den)
    return tuple(out)


def clear_columns(rows: Sequence[Sequence[RationalExpr]]) -> list[list[MultiPoly]]:
    """Scale each column by the lcm of its reduced denominators; rank-preserving."""
    if not rows:
        return []
    columns = [cleared_column(col) for col in zip(*rows)]
    return [list(row) for row in zip(*columns)]


@dataclass(frozen=True, slots=True)
class RankCertificate:
    """Generic rank with a witness minor of the cleared matrix."""

    rank: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    minor: MultiPoly | None


def _extend(
    matrix: Sequence[Sequence[MultiPoly]], rows: Sequence[int], cols: Sequence[int], cache: dict
) -> tuple[tuple[int, ...], tuple[int, ...], MultiPoly] | None:
    """The first nonzero minor on rows + (i,) and cols + (j,), trying the
    rows i outside `rows` and then the columns j outside `cols` in index
    order, as (sorted rows, sorted cols, minor); None if all vanish.
    """
    for i in range(len(matrix)):
        if i in rows:
            continue
        rows_try = tuple(sorted((*rows, i)))
        for j in range(len(matrix[0])):
            if j in cols:
                continue
            cols_try = tuple(sorted((*cols, j)))
            minor = det_poly(matrix, rows_try, cols_try, cache)
            if not minor.is_zero():
                return rows_try, cols_try, minor
    return None


def generic_rank_matrix(rows: Sequence[Sequence[RationalExpr]]) -> RankCertificate:
    """Largest r with a nonzero r x r minor, plus one witness.

    The witness grows one row and one column at a time (_extend), so the
    result is deterministic. When every such extension of a nonzero r x r
    minor A vanishes, the rank is exactly r: the extension by row i and
    column j is det(A) times the (i, j) entry of the Schur complement of
    A, so the complement is zero and rank = r + rank(complement) = r.
    """
    if not rows or not rows[0]:
        return RankCertificate(0, (), (), None)
    cleared = clear_columns(rows)
    cache: dict = {}
    witness: tuple = ((), (), None)
    while (step := _extend(cleared, witness[0], witness[1], cache)) is not None:
        witness = step
    return RankCertificate(len(witness[0]), *witness)


# A point of Q(i)^nvars where raising_row evaluates its minors first.
_PROBE = (gr(2, 1), gr(-3, 2), gr(5, -1), gr(1, 4), gr(-7, 3))


def raising_row(
    columns: Sequence[Sequence[MultiPoly]], rows: Sequence[int]
) -> int | None:
    """A row that raises the rank when the last column joins the others.

    columns are cleared columns; all but the last are independent, with a
    nonzero minor on `rows`. The last column lies in their span exactly
    when its Schur complement against that witness block vanishes, that
    is when every extension of the witness by one row and the last column
    vanishes. Returns an i whose extension is nonzero, or None.

    A minor that is nonzero at a point is nonzero, so the minors are
    first evaluated at a fixed point; only when all of them vanish there
    are the polynomial minors computed.
    """
    matrix = [list(r) for r in zip(*columns)]
    k = len(columns)
    others = [i for i in range(len(matrix)) if i not in rows]
    probe = _PROBE[: len(matrix)]
    values = [[p.eval(probe) for p in r] for r in matrix]
    for i in others:
        if rank_at_point_matrix([values[r] for r in sorted((*rows, i))]) == k:
            return i
    step = _extend(matrix, rows, range(k - 1), {})
    return None if step is None else next(i for i in step[0] if i not in rows)


def rank_at_point_matrix(values: Sequence[Sequence[GaussianRational]]) -> int:
    """Rank of a constant matrix by forward elimination over Q(i)."""
    mat = [list(row) for row in values]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if not mat[r][col].is_zero()), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        inv = top[col].inverse()
        for r in range(rank + 1, len(mat)):
            if not mat[r][col].is_zero():
                factor = mat[r][col] * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], top)]
        rank += 1
        if rank == len(mat):
            break
    return rank
