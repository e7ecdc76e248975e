"""Symbolic matrix realizations of maximal unipotent subgroups, types A and D.

Generators are the one-parameter matrices x_i(t); in type A_n they act on
C^{n+1} as I + t E_{i,i+1}, in type D_n on C^{2n} as
I + t (E_{n-i+1,n-i+2} + E_{n+i-1,n+i}) for 2 <= i <= n and
I + t (E_{n-1,n+1} + E_{n,n+2}) for i = 1.  Entries are exact Laurent
polynomials in declared parameters; all matrix indices in the public API
are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .laurent import LaurentPoly


class NMatrixError(Exception):
    pass


def parse_type(gtype: str) -> tuple[str, int]:
    """Parse a type string like "A2" or "D4" into (letter, rank)."""
    letter = gtype[:1].upper()
    if letter not in ("A", "D"):
        raise NMatrixError(f"unsupported type {gtype!r}; expected A<n> or D<n>")
    try:
        rank = int(gtype[1:])
    except ValueError as exc:
        raise NMatrixError(f"cannot parse rank from {gtype!r}") from exc
    if letter == "A" and rank < 1:
        raise NMatrixError("type A needs rank >= 1")
    if letter == "D" and rank < 3:
        raise NMatrixError("type D needs rank >= 3")
    return letter, rank


def matrix_size(gtype: str) -> int:
    letter, rank = parse_type(gtype)
    return rank + 1 if letter == "A" else 2 * rank


@dataclass(frozen=True)
class Word:
    """A sequence of generator indices with matching parameter names."""

    letters: tuple[int, ...]
    params: tuple[str, ...]

    def __post_init__(self):
        if len(self.letters) != len(self.params):
            raise NMatrixError("letters and params must have equal length")
        if len(set(self.params)) != len(self.params):
            raise NMatrixError(f"parameter names must be distinct, got {list(self.params)}")

    @classmethod
    def with_default_params(cls, letters: Sequence[int]) -> "Word":
        return cls(tuple(letters), tuple(f"t{i + 1}" for i in range(len(letters))))


@dataclass(frozen=True)
class NMatrix:
    """A square matrix of Laurent polynomials, upper unitriangular by construction."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def varnames(self) -> tuple[str, ...]:
        return self.entries[0][0].varnames

    def entry(self, i: int, j: int) -> LaurentPoly:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[LaurentPoly, ...]:
        return self.entries[i - 1]

    def is_unitriangular(self) -> bool:
        one = LaurentPoly.one(self.varnames)
        for i in range(self.size):
            if self.entries[i][i] != one:
                return False
            for j in range(i):
                if not self.entries[i][j].is_zero:
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "vars": list(self.varnames),
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }


def _positions(letter: str, rank: int, i: int) -> list[tuple[int, int]]:
    """1-based (row, col) slots of the parameter in x_i(t)."""
    if i < 1 or i > rank:
        raise NMatrixError(f"vertex {i} out of range for {letter}{rank}")
    if letter == "A":
        return [(i, i + 1)]
    if i == 1:
        return [(rank - 1, rank + 1), (rank, rank + 2)]
    return [(rank - i + 1, rank - i + 2), (rank + i - 1, rank + i)]


def _column_product(
    gtype: str, letters: Sequence[int], params: Sequence[str], varnames: Sequence[str]
) -> NMatrix:
    """x_{i_1}(t_1) ... x_{i_r}(t_r) by column operations, left to right.

    Right-multiplying by I + t E_{rc} adds t times column r to column c; the
    slots of one generator share no index, so its operations commute.
    """
    letter, rank = parse_type(gtype)
    size = matrix_size(gtype)
    one = LaurentPoly.one(varnames)
    zero = LaurentPoly.zero(varnames)
    cols = [[one if i == j else zero for i in range(size)] for j in range(size)]
    for i, t in zip(letters, params):
        tpoly = LaurentPoly.variable(t, varnames)
        for r, c in _positions(letter, rank, i):
            source, target = cols[r - 1], cols[c - 1]
            for k, a in enumerate(source):
                if not a.is_zero:
                    target[k] = target[k] + a * tpoly
    return NMatrix(tuple(zip(*cols)))


def generator(gtype: str, i: int, t: str, varnames: Sequence[str]) -> NMatrix:
    """The one-parameter generator x_i(t) as an exact symbolic matrix."""
    return _column_product(gtype, (i,), (t,), varnames)


def product(gtype: str, word: Word) -> NMatrix:
    """x_{i_1}(t_1) ... x_{i_r}(t_r), multiplied left to right in word order.

    >>> x = product("A2", Word.with_default_params((1, 2, 1)))
    >>> str(x.entry(1, 2)), str(x.entry(1, 3))
    ('t1 + t3', 't1*t2')
    """
    return _column_product(gtype, word.letters, word.params, word.params)


def generic_unitriangular(size: int) -> NMatrix:
    """Unitriangular matrix with a free variable in every strictly-upper slot."""
    if size > 9:
        raise NMatrixError("generic matrices use single-digit index names; size <= 9")
    varnames = tuple(
        f"n{i}{j}" for i in range(1, size + 1) for j in range(i + 1, size + 1)
    )
    one = LaurentPoly.one(varnames)
    zero = LaurentPoly.zero(varnames)
    rows = []
    for i in range(1, size + 1):
        row = []
        for j in range(1, size + 1):
            if i == j:
                row.append(one)
            elif i < j:
                row.append(LaurentPoly.variable(f"n{i}{j}", varnames))
            else:
                row.append(zero)
        rows.append(tuple(row))
    return NMatrix(tuple(rows))


# ----------------------------------------------------------------------
# determinants and minors


def _det_cofactor(rows: list[list[LaurentPoly]], varnames) -> LaurentPoly:
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(varnames)
    if n == 1:
        return rows[0][0]
    acc = LaurentPoly.zero(varnames)
    for j in range(n):
        a = rows[0][j]
        if a.is_zero:
            continue
        minor_rows = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sub = _det_cofactor(minor_rows, varnames)
        term = a * sub
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_bareiss(rows: list[list[LaurentPoly]], varnames) -> LaurentPoly:
    """Fraction-free Bareiss elimination; every division here is exact.
    The first step's divisor is 1, so that step divides nothing."""
    n = len(rows)
    a = [row[:] for row in rows]
    sign = 1
    for k in range(n - 1):
        if a[k][k].is_zero:
            pivot = next((i for i in range(k + 1, n) if not a[i][k].is_zero), None)
            if pivot is None:
                return LaurentPoly.zero(varnames)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.div_exact(prev) if k else num
            a[i][k] = LaurentPoly.zero(varnames)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


# Cofactor expansion runs up to this many nonzero Leibniz terms, 4! so that
# every minor up to 4x4 takes it.  The sparse 5x5 minors of the D5 w0
# product have at most 24 terms and expand about ten times faster than
# Bareiss eliminates them; a dense minor's products swell before they
# cancel, so it goes to Bareiss.
COFACTOR_MAX_TERMS = 24


def _leibniz_terms(rows: list[list[LaurentPoly]]) -> int:
    """The number of permutations that meet only nonzero entries, counted
    up to COFACTOR_MAX_TERMS + 1.  Rows go sparsest first, so that a row
    with few nonzero entries cuts the search early."""
    support = sorted(([j for j, a in enumerate(r) if not a.is_zero] for r in rows), key=len)
    count = 0

    def extend(i: int, used: int) -> bool:
        nonlocal count
        if i == len(support):
            count += 1
            return count > COFACTOR_MAX_TERMS
        return any(extend(i + 1, used | 1 << j) for j in support[i] if not used >> j & 1)

    extend(0, 0)
    return count


def determinant(rows: Sequence[Sequence[LaurentPoly]], varnames) -> LaurentPoly:
    """Cofactor expansion when the matrix has at most COFACTOR_MAX_TERMS
    nonzero Leibniz terms, Bareiss elimination otherwise."""
    rows = [list(r) for r in rows]
    if len(rows) <= 4 or _leibniz_terms(rows) <= COFACTOR_MAX_TERMS:
        return _det_cofactor(rows, varnames)
    return _det_bareiss(rows, varnames)


def minor(m: NMatrix, rows: Sequence[int], cols: Sequence[int]) -> LaurentPoly:
    """Determinant of the submatrix on the given 1-based row and column lists."""
    if len(rows) != len(cols):
        raise NMatrixError("row and column index lists must have equal length")
    for idx in (rows, cols):
        if list(idx) != sorted(set(idx)):
            raise NMatrixError("index lists must be strictly increasing")
        if idx and (idx[0] < 1 or idx[-1] > m.size):
            raise NMatrixError("index out of range")
    sub = [[m.entry(i, j) for j in cols] for i in rows]
    return determinant(sub, m.varnames)


# ----------------------------------------------------------------------
# quadric membership


def isotropy_defect(row: Sequence[LaurentPoly]) -> LaurentPoly:
    """q(y) = sum_i (-1)^(i-1) y_i y_{2n+1-i} for a 2n-vector of polynomials."""
    size = len(row)
    if size % 2 != 0:
        raise NMatrixError("isotropy check needs an even-length row")
    n = size // 2
    varnames = row[0].varnames
    acc = LaurentPoly.zero(varnames)
    for i in range(1, n + 1):
        term = row[i - 1] * row[size - i]
        acc = acc + term if i % 2 == 1 else acc - term
    return acc


def verify_quadric_relation(rank: int, word: Word) -> tuple[bool, LaurentPoly | None]:
    """Check the first row of a type-D product lies on the isotropic cone.

    Returns (True, None) on success, else (False, witness) where the witness
    is one monomial of the nonzero defect polynomial.
    """
    x = product(f"D{rank}", word)
    defect = isotropy_defect(x.row(1))
    if defect.is_zero:
        return True, None
    exps, coeff = defect.sorted_terms()[0]
    witness = LaurentPoly.monomial(defect.varnames, exps, coeff)
    return False, witness


# Reduced word for w_0 in type D_4: (1,2,4,3) repeated three times.
D4_W0_LETTERS = (1, 2, 4, 3, 1, 2, 4, 3, 1, 2, 4, 3)

# Reduced words for w_0 in types A_2 and A_3.
A2_W0_LETTERS = (1, 2, 1)
A3_W0_LETTERS = (1, 2, 3, 1, 2, 1)

