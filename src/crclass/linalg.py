"""Exact linear algebra over the rational-function field.

Matrices are lists of rows. Generic rank is decided by exhibiting a
nonzero minor; every rank claim carries a witness (row indices, column
indices, and the minor itself) so it can be rechecked independently.
Columns are cleared of denominators first, which cannot change rank:
each column is scaled by a nonzero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .gaussian import GaussianRational, gr
from .poly import MultiPoly
from .ratfunc import RationalExpr, cleared_column


def det_expr(rows: Sequence[Sequence[RationalExpr]]) -> RationalExpr:
    """Laplace-expansion determinant of a small RationalExpr matrix."""
    size = len(rows)
    for r in rows:
        if len(r) != size:
            raise ValueError("determinant needs a square matrix")
    if size == 0:
        raise ValueError("empty matrix has no determinant")
    if size == 1:
        return rows[0][0]
    if size == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    result = None
    for j in range(size):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [
            [rows[r][cc] for cc in range(size) if cc != j]
            for r in range(1, size)
        ]
        term = entry * det_expr(minor)
        if j % 2 == 1:
            term = -term
        result = term if result is None else result + term
    if result is None:
        return RationalExpr.zero(rows[0][0].space)
    return result


def _det_poly_memo(
    rows: Sequence[Sequence[MultiPoly]],
    row_idx: tuple[int, ...],
    col_idx: tuple[int, ...],
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], MultiPoly],
) -> MultiPoly:
    key = (row_idx, col_idx)
    hit = cache.get(key)
    if hit is not None:
        return hit
    space = rows[0][0].space
    if len(row_idx) == 1:
        value = rows[row_idx[0]][col_idx[0]]
    else:
        value = MultiPoly.zero(space)
        top = row_idx[0]
        rest = row_idx[1:]
        for pos, col in enumerate(col_idx):
            entry = rows[top][col]
            if entry.is_zero():
                continue
            sub_cols = col_idx[:pos] + col_idx[pos + 1 :]
            term = entry * _det_poly_memo(rows, rest, sub_cols, cache)
            value = value - term if pos % 2 == 1 else value + term
    cache[key] = value
    return value


def det_poly(
    rows: Sequence[Sequence[MultiPoly]],
    row_idx: tuple[int, ...],
    col_idx: tuple[int, ...],
    cache: dict | None = None,
) -> MultiPoly:
    """Determinant of the selected square submatrix of a MultiPoly matrix."""
    if len(row_idx) != len(col_idx):
        raise ValueError("minor needs equally many rows and columns")
    if cache is None:
        cache = {}
    return _det_poly_memo(rows, row_idx, col_idx, cache)


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

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "minor": str(self.minor) if self.minor is not None else None,
        }


def generic_rank_matrix(rows: Sequence[Sequence[RationalExpr]]) -> RankCertificate:
    """Largest r with a nonzero r x r minor, plus one witness.

    The search extends the previous witness first (cheap in the common
    case) and falls back to exhaustive lexicographic enumeration, so the
    result is deterministic and the reported rank is exact.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return RankCertificate(0, (), (), None)
    cleared = clear_columns(rows)
    cache: dict = {}
    best_rows: tuple[int, ...] = ()
    best_cols: tuple[int, ...] = ()
    best_minor: MultiPoly | None = None
    for r in range(1, min(nrows, ncols) + 1):
        found = None
        row_pool = [i for i in range(nrows) if i not in best_rows]
        col_pool = [j for j in range(ncols) if j not in best_cols]
        for new_row in row_pool:
            rows_try = tuple(sorted(best_rows + (new_row,)))
            for new_col in col_pool:
                cols_try = tuple(sorted(best_cols + (new_col,)))
                minor = det_poly(cleared, rows_try, cols_try, cache)
                if not minor.is_zero():
                    found = (rows_try, cols_try, minor)
                    break
            if found:
                break
        if not found:
            for rows_try in combinations(range(nrows), r):
                for cols_try in combinations(range(ncols), r):
                    minor = det_poly(cleared, rows_try, cols_try, cache)
                    if not minor.is_zero():
                        found = (rows_try, cols_try, minor)
                        break
                if found:
                    break
        if not found:
            break
        best_rows, best_cols, best_minor = found
    return RankCertificate(len(best_rows), best_rows, best_cols, best_minor)


# A point of Q(i)^nvars where raising_row evaluates its minors first.
_PROBE = (gr(2, 1), gr(-3, 2), gr(5, -1), gr(1, 4), gr(-7, 3))


def raising_row(
    columns: Sequence[Sequence[MultiPoly]], rows: Sequence[int]
) -> int | None:
    """A row that raises the rank when the last column joins the others.

    columns are cleared columns; all but the last are independent, with a
    nonzero minor on `rows`. The last column lies in their span exactly
    when its Schur complement against that witness block vanishes, that
    is when every minor on rows + (i,) and all columns vanishes. Returns
    an i whose minor is nonzero, or None.

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
    for i in others:
        minor = det_poly(matrix, tuple(sorted((*rows, i))), tuple(range(k)))
        if not minor.is_zero():
            return i
    return None


def rank_at_point_matrix(values: Sequence[Sequence[GaussianRational]]) -> int:
    """Rank of a constant matrix by Gaussian elimination over Q(i)."""
    mat = [list(row) for row in values]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if not mat[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = mat[row][col].inverse()
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrows):
            if r != row and not mat[r][col].is_zero():
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank
