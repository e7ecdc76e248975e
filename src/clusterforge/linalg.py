"""Field-generic exact linear algebra on tuple-of-tuples matrices.

Matrices are immutable tuples of row tuples, shape (rows, cols); the empty
matrix of either dimension is legal and handled uniformly.  Every routine
takes the field as its first argument.
"""

from __future__ import annotations

from typing import Sequence

Matrix = tuple[tuple, ...]
Vector = tuple


def zero_matrix(field, nrows: int, ncols: int) -> Matrix:
    z = field.zero()
    return tuple((z,) * ncols for _ in range(nrows))


def identity_matrix(field, n: int) -> Matrix:
    z, o = field.zero(), field.one()
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2 and n and m:
        raise ValueError(f"shape mismatch: {shape(a)} x {shape(b)}")
    if n == 0 or m == 0:
        return zero_matrix(field, n, m)
    bt = tuple(zip(*b)) if b else ()
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = field.zero()
            for x, y in zip(row, col):
                acc = field.add(acc, field.mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_vec(field, a: Matrix, v: Vector) -> Vector:
    return tuple(
        _dot(field, row, v) for row in a
    )


def _dot(field, u, v):
    acc = field.zero()
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(x, y))
    return acc


def hstack(field, blocks: Sequence[Matrix], nrows: int) -> Matrix:
    blocks = [b for b in blocks if shape(b)[1] > 0]
    if not blocks:
        return zero_matrix(field, nrows, 0)
    return tuple(tuple(x for b in blocks for x in b[i]) for i in range(nrows))


def vstack(field, blocks: Sequence[Matrix], ncols: int) -> Matrix:
    rows = []
    for b in blocks:
        rows.extend(b)
    if not rows:
        return zero_matrix(field, 0, ncols)
    return tuple(rows)


def submatrix_columns(a: Matrix, cols: Sequence[int]) -> Matrix:
    return tuple(tuple(row[j] for j in cols) for row in a)


def rref(field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    nrows, ncols = shape(a)
    rows = [list(r) for r in a]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), pivots


def rank(field, a: Matrix) -> int:
    return len(rref(field, a)[1])


def nullspace(field, a: Matrix) -> list[Vector]:
    """Basis of the right kernel {v : a v = 0}, one vector per free column."""
    nrows, ncols = shape(a)
    if ncols == 0:
        return []
    if nrows == 0:
        return [tuple(field.one() if i == j else field.zero() for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(tuple(v))
    return basis


def column_space_basis(field, a: Matrix) -> Matrix:
    """Matrix whose columns are the pivot columns of a (a basis of im a)."""
    red, pivots = rref(field, a)
    return submatrix_columns(a, pivots)


def solve_matrix(field, a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b column by column; None if any column is inconsistent."""
    nrows, ncols = shape(a)
    brows, bcols = shape(b)
    if bcols == 0:
        return zero_matrix(field, ncols, 0)
    aug = tuple(tuple(list(ra) + list(rb)) for ra, rb in zip(a, b))
    red, pivots = rref(field, aug)
    if any(p >= ncols for p in pivots):
        return None
    x = [[field.zero()] * bcols for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        for j in range(bcols):
            x[pc][j] = red[r][ncols + j]
    return tuple(tuple(row) for row in x)


def in_span(field, basis: Matrix, v: Vector) -> bool:
    col = tuple((x,) for x in v)
    return solve_matrix(field, basis, col) is not None


def is_invertible(field, a: Matrix) -> bool:
    n, m = shape(a)
    if n != m:
        return False
    if n == 0:
        return True
    return rank(field, a) == n
