"""Exact multivariate Laurent polynomials with integer coefficients.

A Laurent polynomial is stored as a map from exponent vectors (tuples of
ints, negative entries allowed) to nonzero integer coefficients, together
with the ordered tuple of variable names that fixes the meaning of each
exponent slot.  All values are immutable; arithmetic never leaves the ring
and evaluation is done in exact rationals.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import islice
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

# An exponent vector; one slot per variable of the ambient ring, negative
# entries permitted.
Monomial = tuple[int, ...]


class LaurentError(Exception):
    """Base class for Laurent-ring failures."""


class VariableMismatchError(LaurentError):
    """Operands live over different variable lists."""


class InexactDivisionError(LaurentError):
    """Division has a nonzero remainder (or a non-integer coefficient)."""


class EvaluationError(LaurentError):
    """Evaluation met a missing value, a value that is not an int or a
    Fraction, or a zero value at a negatively-exponentiated variable."""


def _grlex_key(exponents: Monomial) -> tuple:
    return (sum(exponents), exponents)


class LaurentPoly:
    """An immutable Laurent polynomial over Z.

    >>> x, y = LaurentPoly.variables(("x", "y"))
    >>> str((x + y) * (x - y))
    'x^2 - y^2'
    >>> str((x * x).div_exact(x))
    'x'
    """

    __slots__ = ("varnames", "terms", "_hash", "_key", "_span")

    def __init__(self, varnames: Sequence[str], terms: Mapping[Monomial, int]):
        names = tuple(varnames)
        clean: dict[Monomial, int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if not all(map(_is_int, exps)):
                raise LaurentError("exponents must be integers")
            if len(exps) != len(names):
                raise VariableMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {len(names)}"
                )
            if not _is_int(coeff):
                raise LaurentError(f"coefficient must be an integer, got {coeff!r}")
            if coeff:
                clean[exps] = coeff
        self._fill(names, clean)

    @classmethod
    def _build(cls, varnames: tuple[str, ...], terms: dict[Monomial, int]) -> "LaurentPoly":
        """A polynomial on a terms dict that this module's arithmetic built:
        int-tuple keys of the right length and nonzero int values, so
        nothing is checked or copied."""
        self = object.__new__(cls)
        self._fill(varnames, terms)
        return self

    def _fill(self, varnames: tuple[str, ...], terms: dict[Monomial, int]) -> None:
        object.__setattr__(self, "varnames", varnames)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_span", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, varnames: Sequence[str]) -> "LaurentPoly":
        return cls(varnames, {})

    @classmethod
    def constant(cls, varnames: Sequence[str], c: int) -> "LaurentPoly":
        names = tuple(varnames)
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def one(cls, varnames: Sequence[str]) -> "LaurentPoly":
        return cls.constant(varnames, 1)

    @classmethod
    def monomial(cls, varnames: Sequence[str], exponents: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return cls(varnames, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, name: str, varnames: Sequence[str]) -> "LaurentPoly":
        names = tuple(varnames)
        idx = names.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls(names, {exps: 1})

    @classmethod
    def variables(cls, varnames: Sequence[str]) -> list["LaurentPoly"]:
        """All generators of the ring with the given variable list, in order."""
        return [cls.variable(v, varnames) for v in varnames]

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {(0,) * len(self.varnames): 1}

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def sort_key(self) -> tuple:
        """A total-order key on polynomials (used to canonicalize clusters),
        computed once and shared by every seed key and hash that uses it."""
        key = self._key
        if key is None:
            key = tuple(self.sorted_terms())
            object.__setattr__(self, "_key", key)
        return key

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.varnames != other.varnames:
            raise VariableMismatchError(
                f"variable lists differ: {self.varnames} vs {other.varnames}"
            )

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            self._check_compatible(other)
            return other
        if isinstance(other, int):  # a bool operand acts as 0 or 1
            return LaurentPoly.constant(self.varnames, int(other))
        return NotImplemented

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.get(exps, 0) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return LaurentPoly._build(self.varnames, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._build(self.varnames, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other is self:
            # a square: c^2 on each monomial 2e (no two coincide), then
            # 2*c1*c2 once for each pair of distinct terms
            items = list(self.terms.items())
            out = {tuple(map(add, e, e)): c * c for e, c in items}
            rows = ((e1, 2 * c1, islice(items, i)) for i, (e1, c1) in enumerate(items))
        else:
            out = {}
            rows = ((e1, c1, other.terms.items()) for e1, c1 in self.terms.items())
        get = out.get
        for e1, c1, row in rows:
            for e2, c2 in row:
                exps = tuple(map(add, e1, e2))
                c = get(exps, 0) + c1 * c2
                if c:
                    out[exps] = c
                else:
                    del out[exps]
        return LaurentPoly._build(self.varnames, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        """self^n: 1 for n = 0, `_power`'s square-and-multiply on `__mul__`
        for n >= 1, and for n < 0 the power of the inverse of a monomial
        whose coefficient is a unit."""
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            if not self.is_monomial:
                raise LaurentError("negative powers are only defined for monomials")
            (exps, coeff), = self.terms.items()
            if coeff not in (1, -1):
                raise InexactDivisionError(f"monomial coefficient {coeff} is not a unit")
            inv = LaurentPoly(self.varnames, {tuple(-e for e in exps): coeff})
            return inv ** (-n)
        if n == 0:
            return LaurentPoly.one(self.varnames)
        return _power(self, n, LaurentPoly.__mul__)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.varnames, int(other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.varnames == other.varnames and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its int (see __eq__), so it hashes like it too
        h = self._hash
        if h is None:
            const = (0,) * len(self.varnames)
            if self.terms.keys() <= {const}:
                h = hash(self.terms.get(const, 0))
            else:
                h = hash((self.varnames, self.sort_key()))
            object.__setattr__(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # division and evaluation

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return r with r * divisor == self, or raise InexactDivisionError.

        self is the one-product case of `exchange`'s division
        (`_divide_sum`): packed relative to its shift, it is divided by a
        monomial divisor term by term, shifting the exponents and dividing
        each coefficient in self's term order, and otherwise by
        multivariate long division in graded-lex order (`_Packing.divide`).
        A nonzero remainder is an error, never a truncation, and the error
        names the first coefficient that is not a multiple, or the
        remainder's leading term in the dividend's own exponents.
        """
        self._check_compatible(divisor)
        return _divide_sum(divisor, ([(self, 1)],))

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Exact rational value of the polynomial at the given point.

        A value is an int (not a bool) or a Fraction; a float would be read
        as its binary expansion.  Every variable with a negative exponent
        somewhere in the polynomial must map to a nonzero value.
        """
        values = []
        for i, name in enumerate(self.varnames):
            if name in point:
                value = point[name]
                if not (_is_int(value) or isinstance(value, Fraction)):
                    raise EvaluationError(
                        f"value {value!r} for variable {name!r} is not an int or a Fraction"
                    )
                values.append(Fraction(value))
            else:
                if any(e[i] != 0 for e in self.terms):
                    raise EvaluationError(f"no value supplied for variable {name!r}")
                values.append(Fraction(0))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, exps):
                if e == 0:
                    continue
                if v == 0 and e < 0:
                    raise EvaluationError("zero value at a negative-exponent variable")
                term *= v ** e
            total += term
        return total

    # ------------------------------------------------------------------
    # serialization and display

    def to_json(self) -> dict:
        return {
            "vars": list(self.varnames),
            "terms": [
                {"exponents": list(e), "coeff": str(c)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        """Read the form written by to_json; raises LaurentError, naming the
        field and a term by its index, on a malformed blob."""
        if not isinstance(data, Mapping) or not {"vars", "terms"} <= data.keys():
            raise LaurentError("a polynomial must be an object with the keys 'vars' and 'terms'")
        names, blob = data["vars"], data["terms"]
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise LaurentError(f"vars must be a list of strings, got {names!r}")
        if len(set(names)) != len(names):
            raise LaurentError(f"vars must be distinct, got {names}")
        if not isinstance(blob, list):
            raise LaurentError("terms must be a list of term objects")
        terms = {}
        for i, t in enumerate(blob):
            if not isinstance(t, Mapping) or not {"exponents", "coeff"} <= t.keys():
                raise LaurentError(
                    f"term {i} must be an object with the keys 'exponents' and 'coeff'"
                )
            exps = t["exponents"]
            if not (isinstance(exps, list) and len(exps) == len(names)
                    and all(map(_is_int, exps))):
                raise LaurentError(
                    f"term {i} exponents must be a list of {len(names)} integers, got {exps!r}"
                )
            exps = tuple(exps)
            if exps in terms:
                raise LaurentError(f"term {i} has the same exponent vector as an earlier term")
            try:
                terms[exps] = _json_coeff(t["coeff"])
            except LaurentError as exc:
                raise LaurentError(f"term {i}: {exc}") from exc
        return cls(tuple(names), terms)

    def _term_str(self, exps: Monomial, coeff: int) -> str:
        factors = []
        for name, e in zip(self.varnames, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            s = self._term_str(exps, coeff)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f"- {s[1:]}")
            else:
                parts.append(f"+ {s}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _json_coeff(x) -> int:
    """A coefficient as to_json writes it, a string of an int, or an int;
    anything else (a float, a bool) raises LaurentError, never truncates."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif _is_int(x):
        return x
    raise LaurentError(f"coefficient must be an integer, got {x!r}")


def product_of(polys: Iterable[LaurentPoly], varnames: Sequence[str]) -> LaurentPoly:
    """Product of an iterable of polynomials (1 for the empty product)."""
    result = None
    for p in polys:
        result = p if result is None else result * p
    return LaurentPoly.one(varnames) if result is None else result


def exchange(
    divisor: LaurentPoly,
    pos: Sequence[tuple[LaurentPoly, int]],
    neg: Sequence[tuple[LaurentPoly, int]],
) -> LaurentPoly:
    """(prod f^e over pos + prod f^e over neg).div_exact(divisor): the
    exchange relation of a cluster algebra solved for the new variable.
    pos and neg list (polynomial, power) pairs with positive int powers, an
    empty list being the product 1.  The binomial is formed and divided in
    one packing by `_divide_sum`, the division div_exact makes too, so the
    quotient, its term order and the InexactDivisionError an inexact
    division raises are those of div_exact on the binomial that
    `product_of` and `+` give."""
    for f, e in (*pos, *neg):
        divisor._check_compatible(f)
        if not _is_int(e) or e < 1:
            raise LaurentError(f"exchange powers must be positive integers, got {e!r}")
    return _divide_sum(divisor, (pos, neg))


def _divide_sum(
    divisor: LaurentPoly, products: Sequence[Sequence[tuple[LaurentPoly, int]]]
) -> LaurentPoly:
    """The sum of the products divided exactly by divisor, formed and
    divided in one packing.  Each product lists (polynomial, power) pairs
    with positive int powers, an empty list being the product 1; div_exact
    passes the one product [(self, 1)] and `exchange` its two sides.  Raises
    InexactDivisionError on a zero divisor or an inexact division.

    Each distinct factor is packed once, relative to its own shift (the
    componentwise minimum of its exponents).  Powers are formed by
    `_power` and each product factor by factor, on packed ints and in the
    order that `__pow__` and `product_of` multiply in; a factor times
    itself forms each unordered pair of terms once, as `__mul__` does.  So
    the products and their sum hold their terms in the order of the sum
    that `product_of` and `+` give.  A monomial divisor shifts each term
    and divides its coefficient, in that order, so an error names the first
    coefficient that is not a multiple; any other divisor goes to
    `_Packing.divide`.  Only the quotient is unpacked.

    The digit width is fixed before anything is multiplied.  In the domain
    Z[x^±1], the terms of a product that are lowest in e_i are the product
    of its factors' lowest terms in e_i, which is nonzero; so a product's
    shift is the sum of its factors' shifts, and its largest degree
    relative to that shift the sum of theirs, each times its power.  Let
    smin be the componentwise minimum of the products' shifts.  Every term
    of the sum, even where the products cancel, has exponents at least
    smin, and relative to smin a degree at most top, the larger over the
    products of its relative degree plus the excess of its shift's degree
    over smin's.  With the divisor's relative degree that bounds every
    digit the products, their sum and the division form, and an exact
    quotient's exponents are at least smin - shift(divisor).  Where no term
    cancels, smin is the sum's own shift; where one does, the sum is
    repacked relative to its own shift.  Packed ints compare like the
    tuples (degree, e1, ..., en) at any width that holds the digits, so
    each division step is that of the sum packed on its own, with the same
    test, and a failing step names the same term with the same
    coefficient."""
    if divisor.is_zero:
        raise InexactDivisionError("division by the zero polynomial")
    n = len(divisor.varnames)
    sides = []  # (product, shift, relative degree) of each product that is not zero
    for side in products:
        if all(f.terms for f, _ in side):
            spans = [(e, *_span_of(f)) for f, e in side]
            shift = tuple(map(sum, zip((0,) * n, *([e * x for x in s] for e, s, _ in spans))))
            sides.append((side, shift, sum(e * t for e, _, t in spans)))
    if not sides:
        return LaurentPoly._build(divisor.varnames, {})
    smin = tuple(map(min, zip(*(shift for _, shift, _ in sides))))
    top = max(t + sum(shift) - sum(smin) for _, shift, t in sides)
    if not divisor.is_monomial:
        shift_q, top_q = _span_of(divisor)
        top = max(top, top_q)
    packing = _Packing(n, top)
    packed = {}  # id(factor) -> its packed terms, a repeated factor packed once
    for side, _, _ in sides:
        for f, _ in side:
            if id(f) not in packed:
                packed[id(f)] = packing.pack(f.terms, _span_of(f)[0])
    dividend: dict[int, int] = {}
    cancelled = False
    for side, shift, _ in sides:
        product = None
        for f, e in side:
            term = _power(packed[id(f)], e)
            product = term if product is None else _times(product, term)
        base = packing.value(map(sub, shift, smin))
        for m, c in ({0: 1} if product is None else product).items():
            m += base
            c += dividend.get(m, 0)
            if c:
                dividend[m] = c
            else:
                del dividend[m]
                cancelled = True
    if not dividend:
        return LaurentPoly._build(divisor.varnames, {})
    if divisor.is_monomial:
        (exps_q, c_q), = divisor.terms.items()
        offsets, mask = packing.offsets, packing.mask
        unshift = list(zip(offsets, map(sub, smin, exps_q)))
        quotient = {}
        for m, c in dividend.items():
            q, r = divmod(c, c_q)
            if r:
                raise InexactDivisionError(
                    f"inexact division: coefficient {c} is not a multiple of {c_q}"
                )
            quotient[tuple([(m >> o & mask) + s for o, s in unshift])] = q
        return LaurentPoly._build(divisor.varnames, quotient)
    if cancelled:
        low = [min(m >> o & packing.mask for m in dividend) for o in packing.offsets]
        base = packing.value(low)
        if base:
            dividend = {m - base: c for m, c in dividend.items()}
            smin = tuple(map(add, smin, low))
    quotient = packing.divide(dividend, smin, packing.pack(divisor.terms, shift_q), shift_q)
    return LaurentPoly._build(divisor.varnames, quotient)


def _span_of(p: LaurentPoly) -> tuple[Monomial, int]:
    """The shift of a nonzero polynomial, the componentwise minimum of its
    exponents, and its largest degree relative to that shift, computed once
    per polynomial as `sort_key` is."""
    span = p._span
    if span is None:
        shift = tuple(map(min, zip(*p.terms)))
        span = shift, max(map(sum, p.terms)) - sum(shift)
        object.__setattr__(p, "_span", span)
    return span


def _times(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two packed polynomials, formed as `__mul__` forms it
    on tuples: for a square (b is a), each unordered pair of terms once."""
    if b is a:
        items = list(a.items())
        out = {m + m: c * c for m, c in items}
        rows = ((m1, 2 * c1, islice(items, i)) for i, (m1, c1) in enumerate(items))
    else:
        out = {}
        rows = ((m1, c1, b.items()) for m1, c1 in a.items())
    get = out.get
    for m1, c1, row in rows:
        for m2, c2 in row:
            m = m1 + m2
            c = get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _power(a, n: int, times=_times):
    """a^n for n >= 1 by square-and-multiply, squaring only while exponent
    bits remain: the one loop behind `__pow__` (times `LaurentPoly.__mul__`)
    and `_divide_sum`'s packed powers (times `_times`)."""
    result = None
    while True:
        if n & 1:
            result = a if result is None else times(result, a)
        n >>= 1
        if not n:
            return result
        a = times(a, a)


class _Packing:
    """Monomials in n variables packed into single ints.

    Taken relative to a shift, a componentwise lower bound on the exponents
    of the polynomial it belongs to, a monomial has the digits, from the
    most significant down, degree, e1, ..., en.  Each digit is w bits wide
    and its top bit is a guard, left clear; w is one more than the bit
    length of top, the largest relative degree in play, so every digit fits
    below its guard.  Packing is linear: e_i contributes e_i times
    2^(n*w) + 2^offset_i, less the same sum over the shift, so monomials
    multiply by adding their packed ints (and their shifts).  Packed ints
    compare like the tuples (degree, e1, ..., en), so the largest packed
    monomial is the graded-lex largest.  A monomial is unpacked by a shift
    and a mask per digit."""

    __slots__ = ("offsets", "weights", "guards", "mask")

    def __init__(self, n: int, top: int):
        w = top.bit_length() + 1
        self.offsets = range((n - 1) * w, -1, -w)
        self.weights = [(1 << n * w) + (1 << o) for o in self.offsets]
        self.guards = sum(1 << o + w - 1 for o in range(0, (n + 1) * w, w))
        self.mask = (1 << w - 1) - 1

    def value(self, exps: Iterable[int]) -> int:
        """The packed int of an exponent vector relative to the zero shift."""
        return sum(map(mul, exps, self.weights))

    def pack(self, terms: Mapping[Monomial, int], shift: Monomial) -> dict[int, int]:
        weights = self.weights
        base = sum(map(mul, shift, weights))
        return {sum(map(mul, e, weights)) - base: c for e, c in terms.items()}

    def divide(self, current: dict[int, int], shift_p: Monomial,
               divisor: dict[int, int], shift_q: Monomial) -> dict[Monomial, int]:
        """The quotient of a packed dividend by a packed divisor of several
        terms, each relative to its shift, by multivariate long division in
        graded-lex order; current is consumed.  The quotient is unpacked
        relative to shift_p - shift_q, and an exact one is written once per
        monomial, in step order.  Raises InexactDivisionError naming the
        remainder's leading term in absolute exponents.

        Each step cancels the remainder's graded-lex largest term, and the
        divisor's leading term is left out of the update because it cancels
        by construction.  The remainder's monomials sit in a heap of
        negated ints: pushed when they enter the remainder, skipped when
        popped after they have cancelled.  Graded lex is a monomial order,
        so every term a step adds lies below the one it cancels, and the
        heap's smallest live entry is the remainder's largest term, negated.
        The steps run in the order that rescanning the whole remainder for
        its maximum gives, so a failing step names the same term with the
        same coefficient.

        With G the int whose set bits are all the guards, a step's quotient
        monomial is (lead | G) - lead_q: each digit lead_i + 2^(w-1) - q_i
        lies in [1, 2^w), so no borrow crosses a digit, and its guard
        survives iff lead_i >= q_i.  So lead is a multiple of lead_q iff
        every guard survives.  A term the step adds has degree at most the
        leading term's, which is at most the dividend's, so its digits stay
        below their guards, and it costs one int add."""
        offsets, guards, mask = self.offsets, self.guards, self.mask
        lead_q = max(divisor)
        lc_q = divisor[lead_q]
        rest = [(e, c) for e, c in divisor.items() if e != lead_q]
        unshift = list(zip(offsets, map(sub, shift_p, shift_q)))
        heap = [-m for m in current]
        heapq.heapify(heap)
        pop, push, get = heapq.heappop, heapq.heappush, current.get
        quotient: dict[Monomial, int] = {}
        while heap:
            lead = -pop(heap)
            lc_c = current.pop(lead, 0)
            if not lc_c:
                continue
            q = (lead | guards) - lead_q
            if q & guards != guards or lc_c % lc_q:
                lead_e = tuple([(lead >> o & mask) + s for o, s in zip(offsets, shift_p)])
                raise InexactDivisionError(
                    f"inexact division: remainder has leading term {lead_e} -> {lc_c}"
                )
            q ^= guards
            coeff = lc_c // lc_q
            quotient[tuple([(q >> o & mask) + s for o, s in unshift])] = coeff
            for e, c in rest:
                m = q + e
                old = get(m)
                if old is None:
                    current[m] = -coeff * c
                    push(heap, -m)
                else:
                    nc = old - coeff * c
                    if nc:
                        current[m] = nc
                    else:
                        del current[m]
        return quotient
