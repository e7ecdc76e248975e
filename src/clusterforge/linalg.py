"""Field-generic exact linear algebra on tuple-of-tuples matrices.

Matrices are immutable tuples of row tuples.  A subspace of F^n is a
sequence of row vectors that span it.  A matrix with no rows is (), which
does not record its column count, so a routine that needs the ambient
dimension n takes it from its caller.  Entries are plain numbers (see
`fields`) combined with Python operators; a routine that computes takes
the field as its first argument and passes each row it computes through
`field.reduce` once, so it returns canonical elements when given them:
residues over GF(p), and over QQ ints wherever the value is integral.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

Matrix = tuple[tuple, ...]
Vector = tuple


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    return tuple((0,) * ncols for _ in range(nrows))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2 and n and m:
        raise ValueError(f"shape mismatch: {shape(a)} x {shape(b)}")
    if n == 0 or m == 0:
        return zero_matrix(n, m)
    bt = tuple(zip(*b))
    reduce = field.reduce
    return tuple(tuple(reduce([sum(map(mul, row, col)) for col in bt])) for row in a)


def mat_vec(field, a: Matrix, v: Vector) -> Vector:
    return tuple(field.reduce([sum(map(mul, row, v)) for row in a]))


def rref(field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    nrows, ncols = shape(a)
    rows = [list(r) for r in a]
    reduce = field.reduce
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for pivot_row in range(r, nrows):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        if prow[c] != 1:
            inv = field.inv(prow[c])
            rows[r] = prow = reduce([inv * x for x in prow])
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = reduce([x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), pivots


def rank(field, a: Matrix) -> int:
    return len(rref(field, a)[1])


def nullspace(field, rows: Matrix, ncols: int) -> list[Vector]:
    """Basis of {v in F^ncols : r . v = 0 for every row r}, one vector per
    free column of the rref; with no rows it is the standard basis."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(field.reduce(v)))
    return basis


def coordinates(field, basis: Sequence[Vector], vectors: Sequence[Vector]) -> Matrix | None:
    """The k x m matrix c with vectors[j] = sum_r c[r][j] basis[r], for k
    linearly independent basis vectors and m vectors in F^n; None if some
    vector lies outside the span of the basis.  n is read from the vectors:
    when there are none, the answer is () for every n."""
    k = len(basis)
    aug = tuple(zip(*basis, *vectors))
    red, pivots = rref(field, aug)
    if any(p >= k for p in pivots):
        return None
    c = [(0,) * len(vectors)] * k
    for r, pc in enumerate(pivots):
        c[pc] = red[r][k:]
    return tuple(c)


def is_invertible(field, a: Matrix) -> bool:
    n, m = shape(a)
    if n != m:
        return False
    return rank(field, a) == n
