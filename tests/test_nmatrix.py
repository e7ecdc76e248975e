import random
from fractions import Fraction

import pytest

from clusterforge.laurent import LaurentPoly
from clusterforge.nmatrix import (
    A3_W0_LETTERS,
    D4_W0_LETTERS,
    NMatrixError,
    Word,
    generator,
    generic_unitriangular,
    isotropy_defect,
    minor,
    product,
    verify_quadric_relation,
)
from clusterforge.nmatrix import _det_bareiss, _det_cofactor, determinant

from wordtools import dense_mul, dense_product

T12 = tuple(f"t{i}" for i in range(1, 13))


def _poly_from_index_sets(index_sets, varnames=T12):
    terms = {}
    for idx in index_sets:
        exps = [0] * len(varnames)
        for i in idx:
            exps[i - 1] = 1
        terms[tuple(exps)] = 1
    return LaurentPoly(varnames, terms)


# First row of the 12-factor D4 product; frozen reference data.
D4_FIRST_ROW = [
    [()],
    [(3,), (7,), (11,)],
    [(3, 4), (3, 8), (7, 8), (3, 12), (7, 12), (11, 12)],
    [(3, 4, 6), (3, 4, 10), (3, 8, 10), (7, 8, 10)],
    [(3, 4, 5), (3, 4, 9), (3, 8, 9), (7, 8, 9)],
    [(3, 4, 5, 6), (3, 4, 5, 10), (3, 4, 6, 9), (3, 4, 9, 10), (3, 8, 9, 10), (7, 8, 9, 10)],
    [
        (3, 4, 5, 6, 8),
        (3, 4, 5, 6, 12),
        (3, 4, 6, 9, 12),
        (3, 4, 5, 10, 12),
        (3, 4, 9, 10, 12),
        (3, 8, 9, 10, 12),
        (7, 8, 9, 10, 12),
    ],
    [(3, 4, 5, 6, 8, 11)],
]


def test_d4_generator_positions():
    names = ("t",)
    x4 = generator("D4", 4, "t", names)
    t = LaurentPoly.variable("t", names)
    assert x4.entry(1, 2) == t and x4.entry(7, 8) == t
    offdiag = [(i, j) for i in range(1, 9) for j in range(1, 9)
               if i != j and not x4.entry(i, j).is_zero]
    assert offdiag == [(1, 2), (7, 8)]
    x1 = generator("D4", 1, "t", names)
    assert x1.entry(3, 5) == t and x1.entry(4, 6) == t
    offdiag = [(i, j) for i in range(1, 9) for j in range(1, 9)
               if i != j and not x1.entry(i, j).is_zero]
    assert offdiag == [(3, 5), (4, 6)]


def test_a_type_generator_at_zero_is_identity():
    x = generator("A2", 1, "t", ("t",))
    for i in range(1, 4):
        for j in range(1, 4):
            value = x.entry(i, j).evaluate({"t": 0})
            assert value == (1 if i == j else 0)


def test_invalid_vertex_and_type():
    with pytest.raises(NMatrixError):
        generator("A2", 3, "t", ("t",))
    with pytest.raises(NMatrixError):
        product("B3", Word.with_default_params((1,)))
    with pytest.raises(NMatrixError):
        product("", Word.with_default_params((1,)))


def test_a2_product_golden():
    x = product("A2", Word.with_default_params((1, 2, 1)))
    names = x.varnames
    t1, t2, t3 = (LaurentPoly.variable(v, names) for v in names)
    assert x.entry(1, 2) == t1 + t3
    assert x.entry(1, 3) == t1 * t2
    assert x.entry(2, 3) == t2
    assert x.is_unitriangular()


def test_empty_word_is_identity():
    x = product("D4", Word((), ()))
    assert x.size == 8 and x.is_unitriangular()
    assert all(x.entry(i, j).is_zero for i in range(1, 9) for j in range(i + 1, 9))


def test_d4_first_row_golden(d4_product):
    for j, expected in enumerate(D4_FIRST_ROW, start=1):
        assert d4_product.entry(1, j) == _poly_from_index_sets(expected), f"entry (1,{j})"


def test_d4_row_monomial_counts(d4_product):
    at_one = [p.evaluate({v: 1 for v in T12}) for p in d4_product.row(1)]
    assert at_one == [Fraction(c) for c in (1, 3, 6, 4, 4, 6, 7, 1)]


def test_product_is_multiplicative_on_splits():
    rng = random.Random(1)
    for kind, rank, length in (("D4", 4, 6), ("A4", 4, 8), ("D5", 5, 8)):
        params = tuple(f"t{i}" for i in range(1, length + 1))
        for _ in range(10):
            letters = tuple(rng.randint(1, rank) for _ in range(length))
            full = product(kind, Word(letters, params))
            cut = rng.randint(0, length)
            left = dense_product(kind, letters[:cut], params[:cut], params)
            right = dense_product(kind, letters[cut:], params[cut:], params)
            assert dense_mul(left, right) == full.entries
            assert full.is_unitriangular()


def test_all_parameters_zero_gives_identity():
    letters = (1, 2, 4, 3, 2, 1)
    x = product("D4", Word.with_default_params(letters))
    zeros = {v: 0 for v in x.varnames}
    for i in range(1, 9):
        for j in range(1, 9):
            assert x.entry(i, j).evaluate(zeros) == (1 if i == j else 0)


def test_minor_golden_and_unitriangular_determinant():
    x = product("A2", Word.with_default_params((1, 2, 1)))
    names = x.varnames
    t2, t3 = LaurentPoly.variable("t2", names), LaurentPoly.variable("t3", names)
    assert minor(x, (1, 2), (2, 3)) == t2 * t3
    assert minor(x, (1, 2, 3), (1, 2, 3)).is_one


def test_minor_index_validation(d4_product):
    with pytest.raises(NMatrixError):
        minor(d4_product, (1, 2), (1,))
    with pytest.raises(NMatrixError):
        minor(d4_product, (2, 1), (1, 2))
    with pytest.raises(NMatrixError):
        minor(d4_product, (1, 9), (1, 2))


def test_plucker_relation_on_generic_matrix():
    g = generic_unitriangular(4)

    def m2(c):
        return minor(g, (1, 2), c)

    assert m2((1, 3)) * m2((2, 4)) == m2((1, 2)) * m2((3, 4)) + m2((1, 4)) * m2((2, 3))


def test_bareiss_agrees_with_cofactor():
    g = generic_unitriangular(6)
    rng = random.Random(2)
    for _ in range(5):
        rows = sorted(rng.sample(range(1, 7), 5))
        cols = sorted(rng.sample(range(1, 7), 5))
        sub = [[g.entry(i, j) for j in cols] for i in rows]
        assert _det_bareiss([list(r) for r in sub], g.varnames) == _det_cofactor(
            [list(r) for r in sub], g.varnames
        )


def test_bareiss_agrees_with_cofactor_on_d5_minors():
    # Minors with rows[k] <= cols[k] of a unitriangular matrix are mostly
    # nonzero; the word (1,2,3,4,5)^3 keeps Bareiss on the 5x5 ones fast.
    x = product("D5", Word.with_default_params((1, 2, 3, 4, 5) * 3))
    rng = random.Random(0)
    nonzero = 0
    for size in (3, 4, 5):
        drawn = 0
        while drawn < 4:
            rows = sorted(rng.sample(range(1, 11), size))
            cols = sorted(rng.sample(range(1, 11), size))
            if any(r > c for r, c in zip(rows, cols)):
                continue
            drawn += 1
            sub = [[x.entry(i, j) for j in cols] for i in rows]
            det = _det_cofactor([list(r) for r in sub], x.varnames)
            assert _det_bareiss([list(r) for r in sub], x.varnames) == det
            assert minor(x, rows, cols) == det
            nonzero += not det.is_zero
    assert nonzero >= 9


def test_bareiss_divides_by_no_constant_one(monkeypatch):
    # The first elimination step's divisor would be 1, so only the steps
    # after it divide: 3^2 + 2^2 + 1^2 divisions for n = 5, each by a pivot.
    divisors = []
    div_exact = LaurentPoly.div_exact

    def recording_div_exact(self, other):
        divisors.append(other)
        return div_exact(self, other)

    monkeypatch.setattr(LaurentPoly, "div_exact", recording_div_exact)
    names = tuple(f"a{i}" for i in range(25))
    dense = [[LaurentPoly.variable(names[5 * i + j], names) for j in range(5)] for i in range(5)]
    det = _det_bareiss([list(r) for r in dense], names)
    assert len(divisors) == 3**2 + 2**2 + 1**2
    assert not any(d.is_one for d in divisors)
    assert det == _det_cofactor([list(r) for r in dense], names)


def test_determinant_chooses_by_nonzero_leibniz_terms(monkeypatch):
    from clusterforge import nmatrix

    ran = []
    for name in ("_det_cofactor", "_det_bareiss"):
        def record(rows, varnames, run=getattr(nmatrix, name), name=name):
            ran.append(name)
            return run(rows, varnames)
        monkeypatch.setattr(nmatrix, name, record)
    # a 6x6 unitriangular matrix has one nonzero Leibniz term
    g = generic_unitriangular(6)
    assert nmatrix.minor(g, range(1, 7), range(1, 7)).is_one
    assert ran[0] == "_det_cofactor"
    # a 5x5 matrix without zeros has 5! = 120 terms
    ran.clear()
    names = tuple(f"a{i}" for i in range(25))
    dense = [[LaurentPoly.variable(names[5 * i + j], names) for j in range(5)] for i in range(5)]
    determinant(dense, names)
    assert ran == ["_det_bareiss"]


def test_quadric_relation_d4_and_d5():
    ok, witness = verify_quadric_relation(4, Word.with_default_params(D4_W0_LETTERS))
    assert ok and witness is None
    for letters in ((1, 2, 3, 4, 5) * 4, (5, 4, 3, 2, 1) * 4):
        ok, witness = verify_quadric_relation(5, Word.with_default_params(letters))
        assert ok and witness is None


def test_isotropy_defect_on_explicit_rows():
    names = ("u",)
    one = LaurentPoly.one(names)
    zero = LaurentPoly.zero(names)
    row = [one] + [zero] * 7
    assert isotropy_defect(row).is_zero


def test_perturbed_row_fails_quadric(d4_product):
    row = list(d4_product.row(1))
    row[7] = row[7] + 1
    defect = isotropy_defect(row)
    assert not defect.is_zero
    # the defect picks up y_1 * 1, witnessed by the constant term of y_1 = 1
    assert defect.terms.get((0,) * 12) == 1


def test_a3_product_matches_uniserial_entries():
    x = product("A3", Word.with_default_params(A3_W0_LETTERS))
    assert x.is_unitriangular()
    assert not x.entry(1, 4).is_zero
