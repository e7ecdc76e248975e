import json
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterforge.laurent import (
    EvaluationError,
    InexactDivisionError,
    LaurentError,
    LaurentPoly,
    VariableMismatchError,
    exchange,
    product_of,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def poly(terms, names=XY):
    return LaurentPoly(names, terms)


def var(name, names=XY):
    return LaurentPoly.variable(name, names)


# ----------------------------------------------------------------------
# golden arithmetic


def test_additive_inverse_is_zero():
    x = var("x")
    assert (x + (-x)).is_zero
    assert x - x == LaurentPoly.zero(XY)


def test_int_minus_poly():
    x = var("x")
    assert 3 - x == -(x - 3)
    assert (3 - x).terms == {(0, 0): 3, (1, 0): -1}
    assert (1 - LaurentPoly.one(XY)).is_zero


def test_poly_is_immutable():
    x = var("x")
    with pytest.raises(AttributeError):
        x.terms = {}
    assert x == var("x")


def test_like_term_collection():
    x, y = LaurentPoly.variables(XY)
    assert (x + y) + y == x + 2 * y


def test_gr25_exchange_numerator():
    names = tuple(f"y{i}" for i in range(1, 6))
    y1, y2, y3, y4, y5 = LaurentPoly.variables(names)
    numerator = y2 * y4 + y3 * y5
    assert numerator.terms == {
        (0, 1, 0, 1, 0): 1,
        (0, 0, 1, 0, 1): 1,
    }
    quotient = numerator.div_exact(y1)
    assert quotient == LaurentPoly(
        names, {(-1, 1, 0, 1, 0): 1, (-1, 0, 1, 0, 1): 1}
    )


def test_monomial_unit_inverse():
    x = var("x")
    assert x * x ** -1 == 1


def test_power_equals_repeated_product():
    x, y = LaurentPoly.variables(XY)
    p = 2 * x * y ** -1 - y + 3
    expected = LaurentPoly.one(XY)
    for n in range(6):
        assert p ** n == expected
        expected = expected * p
    inverse = -(x * y ** 2) ** -1
    expected = LaurentPoly.one(XY)
    for n in range(6):
        assert (-x * y * y) ** -n == expected
        expected = expected * inverse
    with pytest.raises(LaurentError):
        p ** -1


def test_difference_of_squares():
    x, y = LaurentPoly.variables(XY)
    assert (x + y) * (x - y) == x * x - y * y


def test_a2_phi_product_shape():
    names = ("t1", "t2", "t3")
    t1, t2, t3 = LaurentPoly.variables(names)
    assert (t1 + t3) * t2 == t1 * t2 + t2 * t3


def test_monomial_division():
    x = var("x")
    assert (x * x).div_exact(x) == x


def test_monomial_divisor_shifts_and_divides():
    x, y = LaurentPoly.variables(XY)
    assert (6 * x ** 2 * y ** -1).div_exact(2 * x) == 3 * x * y ** -1
    assert (x * y + 3).div_exact(-(x ** -1)) == -(x ** 2 * y) - 3 * x
    with pytest.raises(InexactDivisionError):
        (3 * x).div_exact(2 * y)


def test_sort_key_and_hash_ignore_term_order():
    terms = [((2, -1), 3), ((0, 0), -7), ((1, 1), 1), ((-1, 0), 2)]
    p = poly(dict(terms))
    q = poly(dict(reversed(terms)))
    assert list(p.terms) != list(q.terms)
    assert p == q and hash(p) == hash(q) and p.sort_key() == q.sort_key()
    assert p.sort_key() is p.sort_key()


def test_exact_binomial_division():
    x, y = LaurentPoly.variables(XY)
    assert (x * x - y * y).div_exact(x + y) == x - y


def test_inexact_division_raises():
    x, y = LaurentPoly.variables(XY)
    with pytest.raises(InexactDivisionError):
        (x * x + y).div_exact(x + y)
    with pytest.raises(InexactDivisionError):
        (2 * x).div_exact(poly({(0, 0): 3}))


def test_inexact_division_names_the_dividends_term():
    # x^3 + x*y has monomial content x; the error names x^3 as (3, 0), not
    # as the (2, 0) it becomes once that content is cleared
    x, y = LaurentPoly.variables(XY)
    with pytest.raises(InexactDivisionError,
                       match=re.escape("remainder has leading term (3, 0) -> 1")):
        (x ** 3 + x * y).div_exact(x * y + 1)


@pytest.mark.parametrize("c", [0, 1, -1, 7, -(2 ** 70)])
def test_constant_hashes_like_its_int(c):
    for names in (XY, ()):
        p = LaurentPoly.constant(names, c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1 and {c: "c"}[p] == "c"
    x = var("x")
    assert hash(x) == hash((XY, x.sort_key()))


def test_bool_operands_act_as_ints():
    # the constructor rejects a bool coefficient, but arithmetic and
    # comparison with a bool still read it as 0 or 1
    x = var("x")
    assert x + True == x + 1 and x * False == 0 and x - True == x - 1
    assert LaurentPoly.one(XY) == True and LaurentPoly.zero(XY) == False


def test_division_by_zero_raises():
    x = var("x")
    with pytest.raises(InexactDivisionError):
        x.div_exact(LaurentPoly.zero(XY))


def test_variable_mismatch():
    x = var("x")
    z = LaurentPoly.variable("z", XYZ)
    with pytest.raises(VariableMismatchError):
        x + z


def test_evaluate_golden():
    names = ("t1", "t2", "t3")
    t1, t2, t3 = LaurentPoly.variables(names)
    assert (t1 + t3).evaluate({"t1": 1, "t3": 2}) == 3
    assert (t1 * t2).evaluate({"t1": 2, "t2": 3}) == 6


def test_evaluate_negative_exponent_at_zero():
    x = var("x")
    inv = x ** -1
    assert inv.evaluate({"x": Fraction(1, 2)}) == 2
    with pytest.raises(EvaluationError):
        inv.evaluate({"x": 0})


@pytest.mark.parametrize("value", [0.1, True, "1"], ids=["float", "bool", "string"])
def test_evaluate_rejects_a_value_that_is_not_an_int_or_fraction(value):
    x, y = LaurentPoly.variables(("x", "y"))
    # read through Fraction, 0.1 would be its binary expansion and True would be 1
    with pytest.raises(EvaluationError, match="variable 'x'"):
        (x + y).evaluate({"x": value, "y": Fraction(1, 5)})


def test_serialization_round_trip():
    names = ("a", "b")
    p = LaurentPoly(names, {(2, -1): 3, (0, 0): -7})
    blob = json.dumps(p.to_json())
    assert LaurentPoly.from_json(json.loads(blob)) == p
    assert p.to_json()["terms"][0]["coeff"] == "3"


@pytest.mark.parametrize("term", [
    {"exponents": [1, 0], "coeff": 1.7},
    {"exponents": [1, 0], "coeff": True},
    {"exponents": [1, 0], "coeff": "1.5"},
    {"exponents": [1, 0], "coeff": None},
    {"exponents": [True, 0], "coeff": "1"},
    {"exponents": [1.0, 0], "coeff": "1"},
], ids=["float-coeff", "bool-coeff", "fraction-string-coeff", "null-coeff",
        "bool-exponent", "float-exponent"])
def test_from_json_rejects_non_integer_entries(term):
    with pytest.raises(LaurentError):
        LaurentPoly.from_json({"vars": ["x", "y"], "terms": [term]})


@pytest.mark.parametrize("terms", [
    {(1,): 2.5},
    {(1,): Fraction(5, 2)},
    {(1,): Fraction(2)},
    {(1,): True},
    {(1.0,): 1},
    {(True,): 1},
], ids=["float-coeff", "fraction-coeff", "integral-fraction-coeff", "bool-coeff",
        "float-exponent", "bool-exponent"])
def test_constructor_rejects_non_integer_entries(terms):
    # a coefficient is never truncated and an exponent never stored as a float
    with pytest.raises(LaurentError):
        LaurentPoly(("x",), terms)


def test_from_json_rejects_repeated_exponent_vectors():
    blob = {"vars": ["x", "y"], "terms": [{"exponents": [1, 0], "coeff": "1"},
                                          {"exponents": [1, 0], "coeff": "1"}]}
    with pytest.raises(LaurentError, match="same exponent vector"):
        LaurentPoly.from_json(blob)


def test_from_json_accepts_int_and_string_coefficients():
    blob = {"vars": ["x", "y"], "terms": [{"exponents": [1, 0], "coeff": 2},
                                          {"exponents": [0, -1], "coeff": "-3"}]}
    assert LaurentPoly.from_json(blob) == poly({(1, 0): 2, (0, -1): -3})


def test_str_is_deterministic():
    p = poly({(1, 0): 1, (0, 1): -2, (0, 0): 5})
    assert str(p) == "x - 2*y + 5"


# ----------------------------------------------------------------------
# property suites (hypothesis)

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=5).map(
    lambda terms: LaurentPoly(XY, terms)
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
monomial_divisors = st.builds(
    lambda exps, coeff: LaurentPoly(XY, {exps: coeff}), exponents, st.sampled_from([1, -1, 2, -2])
)
divisors = st.one_of(nonzero_polys, monomial_divisors)
points = st.tuples(
    st.fractions(min_value=-5, max_value=5).filter(lambda f: f != 0),
    st.fractions(min_value=-5, max_value=5).filter(lambda f: f != 0),
)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_normalization_idempotent(p):
    again = LaurentPoly(p.varnames, dict(p.terms))
    assert again == p and again.sorted_terms() == p.sorted_terms()
    assert all(c != 0 for c in p.terms.values())


@given(polys, divisors)
def test_div_exact_round_trip(p, q):
    assert (p * q).div_exact(q) == p


@given(polys, divisors)
def test_div_exact_is_total(p, q):
    # division either returns an exact quotient or raises, never truncates
    try:
        r = p.div_exact(q)
    except InexactDivisionError:
        return
    assert r * q == p


@given(polys, polys, points)
@settings(max_examples=60)
def test_evaluate_is_ring_homomorphism(p, q, point):
    assignment = {"x": point[0], "y": point[1]}
    assert (p * q).evaluate(assignment) == p.evaluate(assignment) * q.evaluate(assignment)
    assert (p + q).evaluate(assignment) == p.evaluate(assignment) + q.evaluate(assignment)


# ----------------------------------------------------------------------
# oracles for the Laurent kernel: schoolbook products, term-by-term
# division by a monomial and max-scan long division, all over plain terms
# dicts


def schoolbook(t1, t2):
    """The product of two terms dicts, every ordered pair of terms formed."""
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def grlex(e):
    return (sum(e), e)


def monomial_division(p, q):
    """div_exact by a monomial: each exponent shifted and each coefficient
    divmod-ed, in the dividend's term order; the error names the first
    coefficient that is not a multiple."""
    (exps_q, c_q), = q.terms.items()
    quotient = {}
    for e, c in p.terms.items():
        coeff, r = divmod(c, c_q)
        if r:
            raise InexactDivisionError(
                f"inexact division: coefficient {c} is not a multiple of {c_q}"
            )
        quotient[tuple(a - b for a, b in zip(e, exps_q))] = coeff
    return LaurentPoly(p.varnames, quotient)


def long_division(p, q):
    """div_exact by a divisor of several terms, as multivariate long
    division that rescans the remainder for its graded-lex largest term at
    every step; the error names that term in the dividend's exponents."""
    assert len(q.terms) > 1
    shift_p = tuple(map(min, zip(*p.terms)))
    shift_q = tuple(map(min, zip(*q.terms)))
    current = {tuple(a - b for a, b in zip(e, shift_p)): c for e, c in p.terms.items()}
    divis = {tuple(a - b for a, b in zip(e, shift_q)): c for e, c in q.terms.items()}
    lead_q = max(divis, key=grlex)
    lc_q = divis[lead_q]
    quotient = {}
    while current:
        lead_c = max(current, key=grlex)
        lc_c = current[lead_c]
        diff = tuple(a - b for a, b in zip(lead_c, lead_q))
        if any(d < 0 for d in diff) or lc_c % lc_q != 0:
            lead = tuple(a + b for a, b in zip(lead_c, shift_p))
            raise InexactDivisionError(
                f"inexact division: remainder has leading term {lead} -> {lc_c}"
            )
        coeff = lc_c // lc_q
        quotient[diff] = quotient.get(diff, 0) + coeff
        for e, c in divis.items():
            exps = tuple(a + b for a, b in zip(diff, e))
            nc = current.get(exps, 0) - coeff * c
            if nc:
                current[exps] = nc
            else:
                current.pop(exps, None)
    shift = tuple(a - b for a, b in zip(shift_p, shift_q))
    return LaurentPoly(
        p.varnames, {tuple(a + b for a, b in zip(e, shift)): c for e, c in quotient.items()}
    )


def _centred_exponents(raw, bound):
    """Bytes to exponents in +-bound: byte b gives d = b % (2 bound + 1) and
    then d for d <= bound, else bound - d, so a byte shrinking to 0 gives
    exponent 0.  A monomial is then one draw, not one per exponent."""
    return tuple(d if d <= bound else bound - d for d in (b % (2 * bound + 1) for b in raw))


exponents3 = st.binary(min_size=3, max_size=3).map(lambda raw: _centred_exponents(raw, 3))
coeffs = st.integers(1, 9) | st.integers(-9, -1)
polys3 = st.dictionaries(exponents3, coeffs, max_size=10).map(
    lambda terms: LaurentPoly(XYZ, terms)
)


@st.composite
def non_unit_lead_divisors(draw):
    """Divisors of two to six terms whose graded-lex leading coefficient is
    +-2..+-9, so that a step can fail on divisibility of coefficients."""
    terms = draw(st.dictionaries(exponents3, coeffs, min_size=2, max_size=6))
    terms[max(terms, key=grlex)] = draw(st.integers(2, 9)) * draw(st.sampled_from([1, -1]))
    return LaurentPoly(XYZ, terms)


small_polys3 = st.dictionaries(exponents3, coeffs, max_size=2).map(lambda t: LaurentPoly(XYZ, t))


@st.composite
def division_cases(draw):
    """A divisor over a random dividend or a near multiple p * q + r.  The
    strategies are built once and a monomial is one draw: building them
    per example, and drawing each exponent on its own, cost more than the
    divisions under test."""
    q = draw(non_unit_lead_divisors())
    if draw(st.booleans()):
        return draw(polys3), q
    return draw(polys3) * q + draw(small_polys3), q


def oracle_division(p, q):
    """p divided by a nonzero q on the oracle for q's shape."""
    return (monomial_division if len(q.terms) == 1 else long_division)(p, q)


def assert_matches_oracle_division(p, q):
    """div_exact gives the oracle's quotient, with its terms in the same
    order, or raises the same error text."""
    try:
        expected = oracle_division(p, q)
    except InexactDivisionError as exc:
        with pytest.raises(InexactDivisionError) as raised:
            p.div_exact(q)
        assert str(raised.value) == str(exc)
        return
    got = p.div_exact(q)
    assert got == expected and list(got.terms) == list(expected.terms)


@given(division_cases())
@settings(max_examples=300)
def test_div_exact_matches_long_division(case):
    assert_matches_oracle_division(*case)


def names_of(n):
    return tuple(f"x{i}" for i in range(1, n + 1))


@lru_cache(maxsize=None)
def wide_polys(n, min_size, max_size):
    """Polynomials in n variables with exponents in +-30: digits of the
    packed monomials in div_exact are then wider than 5 bits.  A monomial
    is one draw of n bytes, and each strategy is built once: drawing the n
    exponents one by one, and building strategies per example, cost more
    than the divisions under test."""
    exps = st.binary(min_size=n, max_size=n).map(lambda raw: _centred_exponents(raw, 30))
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_size).map(
        lambda terms: LaurentPoly(names_of(n), terms)
    )


@st.composite
def wide_division_cases(draw):
    """A divisor of two to four terms in 1-20 variables (quadric(10) has 19),
    over a random dividend, a multiple of it, or a multiple plus a small
    remainder.  Once monomial content is cleared, about half of the divisors
    have a higher degree than the dividend."""
    n = draw(st.integers(1, 20))
    q = draw(wide_polys(n, 2, 4))
    if draw(st.booleans()):
        return draw(wide_polys(n, 1, 5)), q
    return draw(wide_polys(n, 0, 4)) * q + draw(wide_polys(n, 0, 2)), q


X1 = names_of(1)
X2 = names_of(2)


@given(wide_division_cases())
@settings(max_examples=150)
# x^4 + 1 has a larger degree than any term of x + 1: a digit width taken
# from the dividend alone lets the first step borrow across digits and pass
# the guard test, and the error then names (0,) instead of (1,)
@example((poly({(1,): 1, (0,): 1}, X1), poly({(4,): 1, (0,): 1}, X1)))
# x1^2 - 3*x2 has a unit leading coefficient: an exact multiple, and the
# same plus x2^2
@example((poly({(3, 0): 1, (2, 1): -1, (1, 1): -3, (0, 2): 3}, X2),
          poly({(2, 0): 1, (0, 1): -3}, X2)))
@example((poly({(3, 0): 1, (2, 1): -1, (1, 1): -3, (0, 2): 4}, X2),
          poly({(2, 0): 1, (0, 1): -3}, X2)))
# -2*x1^2 + x2 has a non-unit leading coefficient: an exact multiple, and
# x1^3 + 1, whose leading coefficient 1 is not a multiple of -2
@example((poly({(3, 0): -2, (2, -1): -2, (1, 1): 1, (0, 0): 1}, X2),
          poly({(2, 0): -2, (0, 1): 1}, X2)))
@example((poly({(3, 0): 1, (0, 0): 1}, X2), poly({(2, 0): -2, (0, 1): 1}, X2)))
def test_div_exact_matches_long_division_in_many_variables(case):
    assert_matches_oracle_division(*case)


@st.composite
def monomial_division_cases(draw):
    """A monomial divisor in 0-20 variables, exponents in +-30 and
    coefficient +-1..+-9, over a random dividend, a multiple of it plus a
    remainder that may be empty, or a constant that may be zero."""
    n = draw(st.integers(0, 20))
    q = draw(wide_polys(n, 1, 1))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(wide_polys(n, 0, 5)), q
    if kind == 1:
        return draw(wide_polys(n, 0, 4)) * q + draw(wide_polys(n, 0, 1)), q
    return LaurentPoly.constant(names_of(n), draw(st.integers(-20, 20))), q


@given(monomial_division_cases())
@settings(max_examples=300)
@example((LaurentPoly.zero(()), poly({(): 3}, ())))
@example((poly({(): 6}, ()), poly({(): -4}, ())))
@example((poly({(): -8}, ()), poly({(): -4}, ())))
# 4, then 3: the error names 3, the first coefficient in the dividend's
# order that is not a multiple of 2, though the graded-lex largest is 5
@example((poly({(0, 0): 4, (1, 0): 3, (2, 1): 5}), poly({(1, -1): 2})))
def test_div_exact_matches_monomial_division(case):
    assert_matches_oracle_division(*case)


@given(polys3, non_unit_lead_divisors())
def test_div_exact_round_trip_three_variables(p, q):
    assert (p * q).div_exact(q) == p


@given(polys)
@example(LaurentPoly.zero(XY))
@example(poly({(2, -1): -3}))
@example(poly({(1, 0): 1, (0, 1): -1}))
# the cross term 2*1*(-2) cancels the diagonal 2^2 at x^2
@example(poly({(0, 0): 1, (1, 0): 2, (2, 0): -2}))
# the cross terms x*x^-1 and y*(-y^-1) cancel at the constant
@example(poly({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): -1}))
def test_square_matches_schoolbook(p):
    copy = LaurentPoly(p.varnames, dict(p.terms))
    assert (p * p).terms == schoolbook(p.terms, p.terms)
    assert (p * copy).terms == schoolbook(p.terms, copy.terms)
    power = {(0, 0): 1}
    for n in range(7):
        assert (p ** n).terms == power
        power = schoolbook(power, p.terms)


# ----------------------------------------------------------------------
# exchange against the binomial it forms, divided by the oracles


def assert_exchange_matches_binomial(divisor, pos, neg):
    """exchange(divisor, pos, neg) is the oracles' quotient of the binomial
    that product_of and + form, with its terms in the same order, or
    raises their message.  div_exact shares exchange's division, so it
    cannot stand in for them here."""
    names = divisor.varnames
    binomial = (product_of((f ** e for f, e in pos), names)
                + product_of((f ** e for f, e in neg), names))
    try:
        expected = oracle_division(binomial, divisor)
    except InexactDivisionError as exc:
        with pytest.raises(InexactDivisionError) as raised:
            exchange(divisor, pos, neg)
        assert str(raised.value) == str(exc)
        return None
    got = exchange(divisor, pos, neg)
    assert got.varnames == names
    assert list(got.terms.items()) == list(expected.terms.items())
    return got


@st.composite
def exchange_cases(draw):
    """Factors in 1-6 variables with exponents in +-30 and coefficients up
    to +-9, drawn from a pool so that a factor can repeat as one object,
    with powers 1-3 on each side; the divisor is a pool factor or a fresh
    polynomial (either may be a monomial).  Half the time the divisor is
    also a factor of both sides, so the division is exact."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(wide_polys(n, 1, 3), min_size=1, max_size=3))
    side = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), max_size=2)
    pos, neg = draw(side), draw(side)
    divisor = draw(st.one_of(st.sampled_from(pool), wide_polys(n, 1, 3)))
    if draw(st.booleans()):
        pos, neg = pos + [(divisor, 1)], neg + [(divisor, 1)]
    return divisor, pos, neg


@given(exchange_cases())
@settings(max_examples=200, deadline=None)
def test_exchange_matches_the_binomial_divided(case):
    assert_exchange_matches_binomial(*case)


def test_exchange_on_cancelling_products():
    """Products that cancel, wholly or in part.  Where a term cancels, the
    binomial's shift can exceed the componentwise minimum of the products'
    shifts, and the division must test divisibility against the former."""
    names = ("x1", "x2", "x3")
    x1, x2, x3 = LaurentPoly.variables(names)
    f = x2 + 2 * x3 ** -1
    # f^2 - f * f is zero: the quotient is zero
    assert exchange(x1 + x2, [(f, 2)], [(-f, 1), (f, 1)]).is_zero
    assert exchange(2 * x1, [(f, 1)], [(-f, 1)]).is_zero
    # x1 + x2 - x2 = x1 has shift (1, 0, 0), above the minimum (0, 0, 0):
    # divided by x1 + 1 it fails at its one term, not at a later one
    with pytest.raises(InexactDivisionError, match=re.escape("(1, 0, 0) -> 1")):
        exchange(x1 + 1, [(x1 + x2, 1)], [(-x2, 1)])
    cases = [
        (x1 + 1, [(x1 + x2, 1)], [(-x2, 1)]),
        # x1 (x1 + x3) + x2 - x2 + x1 (x1 + x3) = 2 x1 (x1 + x3)
        (x1 + x3, [(x1 * (x1 + x3) + x2, 1)], [(x1 * (x1 + x3) - x2, 1)]),
        (x1 + x3, [(x1 + x3, 2), (x2 ** -1, 1)], [(x1 * x3 + 5, 1), (x2 + x1, 1)]),
        (x1 ** -2, [(x1 + x2 * x3, 3)], [(-x1 - x2 * x3, 2), (x1 + x2 * x3, 1)]),
        (3 * x2, [(x2 + 3 * x1, 2)], [(-x2, 2)]),
    ]
    assert assert_exchange_matches_binomial(*cases[1]) == 2 * x1
    for case in cases:
        assert_exchange_matches_binomial(*case)


def test_exchange_on_products_whose_own_terms_cancel():
    """Packed products that cancel terms as they are formed: (x + y)(x - y)
    loses its xy terms, and (1 + 2x - 2x^2)^2, a square that forms each
    unordered pair of terms once, its x^2 term."""
    x, y = LaurentPoly.variables(XY)
    f = 1 + 2 * x - 2 * x ** 2
    assert f ** 2 == 1 + 4 * x - 8 * x ** 3 + 4 * x ** 4
    difference = [(x + y, 1), (x - y, 1)]  # (x + y)(x - y) + y^2 = x^2
    assert assert_exchange_matches_binomial(y, difference, [(y, 2)]) == x ** 2 * y ** -1
    assert assert_exchange_matches_binomial(x, difference, [(y, 2)]) == x
    assert assert_exchange_matches_binomial(f, [(f, 2)], [(f, 1), (x, 1)]) == f + x
    for divisor, pos, neg, message in (
        (x + y, difference, [(y, 2)], "remainder has leading term (2, 0) -> 1"),
        (2 * x, difference, [(y, 2)], "coefficient 1 is not a multiple of 2"),
        (x - 1, [(f, 2)], [(y, 1)], "remainder has leading term (0, 1) -> 1"),
        (2 * y, [(f, 2)], [(y, 1)], "coefficient 1 is not a multiple of 2"),
    ):
        assert assert_exchange_matches_binomial(divisor, pos, neg) is None
        with pytest.raises(InexactDivisionError, match=re.escape(message)):
            exchange(divisor, pos, neg)


def test_exchange_monomial_divisor():
    """A monomial divisor shifts each term; a non-unit coefficient names the
    first term, in the binomial's order, whose coefficient is not a
    multiple."""
    x, y = LaurentPoly.variables(XY)
    assert exchange(x, [], [(y, 1)]) == (1 + y) * x ** -1
    assert exchange(-x * y ** -2, [(x + y, 2)], [(y, 3)]) == -((x + y) ** 2 + y ** 3) * x ** -1 * y ** 2
    with pytest.raises(InexactDivisionError, match="coefficient 3 is not a multiple of 2"):
        exchange(2 * x, [(2 * y + 3, 1)], [(5 * x, 1)])
    with pytest.raises(InexactDivisionError, match="coefficient 1 is not a multiple of 2"):
        exchange(2 * x, [], [(y, 1)])
    with pytest.raises(InexactDivisionError, match="coefficient 9 is not a multiple of 2"):
        exchange(2 * x, [(3 * y + 2, 2)], [])


def test_exchange_rejects_bad_input():
    x, y = LaurentPoly.variables(XY)
    with pytest.raises(InexactDivisionError, match="zero polynomial"):
        exchange(LaurentPoly.zero(XY), [(x, 1)], [])
    with pytest.raises(VariableMismatchError):
        exchange(x, [(var("x", XYZ), 1)], [])
    for power in (0, -1, 1.0, True):
        with pytest.raises(LaurentError, match="positive integers"):
            exchange(x, [(y, power)], [])
