"""Field-generic exact linear algebra on tuple-of-tuples matrices.

Matrices are immutable tuples of row tuples.  A subspace of F^n is a
sequence of row vectors that span it.  A matrix with no rows is (), which
does not record its column count, so a routine that needs the ambient
dimension n takes it from its caller.  Every routine takes the field as its
first argument.
"""

from __future__ import annotations

from typing import Sequence

Matrix = tuple[tuple, ...]
Vector = tuple


def zero_matrix(field, nrows: int, ncols: int) -> Matrix:
    z = field.zero()
    return tuple((z,) * ncols for _ in range(nrows))


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


def nullspace(field, rows: Matrix, ncols: int) -> list[Vector]:
    """Basis of {v in F^ncols : r . v = 0 for every row r}, one vector per
    free column of the rref; with no rows it is the standard basis."""
    red, pivots = rref(field, rows)
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
    c = [(field.zero(),) * len(vectors)] * k
    for r, pc in enumerate(pivots):
        c[pc] = red[r][k:]
    return tuple(c)


def is_invertible(field, a: Matrix) -> bool:
    n, m = shape(a)
    if n != m:
        return False
    return rank(field, a) == n
