"""Test oracles for words: Weyl-group lengths and dense generator products.

The package checks reducedness by reflecting simple roots
(`prepmod.first_unreduced_position`); these helpers let the tests validate
it and the frozen word constants independently (length = number of
positive roots sent negative) and regenerate completions if needed.  Vertex
labelling matches the package: type D has forks 1, 2 on the central node 3
and the chain 3-4-...-n.

`dense_product` multiplies generator matrices by the schoolbook rule,
independently of the column operations inside `nmatrix.product`.
"""

from __future__ import annotations

from clusterforge.laurent import LaurentPoly
from clusterforge.nmatrix import generator, matrix_size


def a_length(word: tuple[int, ...], rank: int) -> int:
    """Inversion count of the permutation s_{i_1}...s_{i_r} in S_{rank+1}."""
    perm = list(range(rank + 1))
    for i in reversed(word):
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return sum(
        1
        for a in range(rank + 1)
        for b in range(a + 1, rank + 1)
        if perm[a] > perm[b]
    )


def _d_columns(word: tuple[int, ...], rank: int) -> list[tuple[int, int]]:
    """Images of the basis vectors e_k as (index, sign) pairs.

    s_1 maps e_{n-1} -> -e_n, e_n -> -e_{n-1}; s_i for i >= 2 swaps
    e_{n-i+1} and e_{n-i+2} (1-based), matching the one-parameter subgroups
    of the matrix realization.
    """
    cols = [(k, 1) for k in range(rank)]
    for i in reversed(word):
        new_cols = []
        for idx, sign in cols:
            if i == 1:
                if idx == rank - 2:
                    new_cols.append((rank - 1, -sign))
                elif idx == rank - 1:
                    new_cols.append((rank - 2, -sign))
                else:
                    new_cols.append((idx, sign))
            else:
                a, b = rank - i, rank - i + 1
                if idx == a:
                    new_cols.append((b, sign))
                elif idx == b:
                    new_cols.append((a, sign))
                else:
                    new_cols.append((idx, sign))
        cols = new_cols
    return cols


def d_length(word: tuple[int, ...], rank: int) -> int:
    """Number of positive roots e_i -+ e_j (i < j) sent negative."""
    cols = _d_columns(word, rank)
    negative = 0
    for i in range(rank):
        for j in range(i + 1, rank):
            for s in (1, -1):  # root e_i - s e_j
                a, sa = cols[i]
                b, sb = cols[j]
                terms: dict[int, int] = {}
                terms[a] = terms.get(a, 0) + sa
                terms[b] = terms.get(b, 0) - s * sb
                terms = {k: v for k, v in terms.items() if v}
                if terms and terms[min(terms)] < 0:
                    negative += 1
    return negative


def weyl_length(kind: str, word: tuple[int, ...]) -> int:
    letter, rank = kind[0].upper(), int(kind[1:])
    if letter == "A":
        return a_length(word, rank)
    if letter == "D":
        return d_length(word, rank)
    raise ValueError(f"unsupported type {kind!r}")


def is_reduced(kind: str, word: tuple[int, ...]) -> bool:
    return weyl_length(kind, word) == len(word)


def dense_mul(a, b):
    """Schoolbook product of two square matrices given as rows of LaurentPoly."""
    n = len(a)
    zero = LaurentPoly.zero(a[0][0].varnames)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(n)
                 if not (a[i][k].is_zero or b[k][j].is_zero)), zero)
            for j in range(n)
        )
        for i in range(n)
    )


def dense_product(kind, letters, params, varnames):
    """Rows of x_{i_1}(t_1) ... x_{i_r}(t_r): the identity multiplied on the
    right by each generator matrix in word order."""
    size = matrix_size(kind)
    one, zero = LaurentPoly.one(varnames), LaurentPoly.zero(varnames)
    rows = tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size))
    for letter, param in zip(letters, params):
        rows = dense_mul(rows, generator(kind, letter, param, varnames).entries)
    return rows
