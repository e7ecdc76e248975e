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
from operator import add, neg, sub
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
    """Evaluation hit a zero value at a negatively-exponentiated variable."""


def _grlex_key(exponents: Monomial) -> tuple:
    return (sum(exponents), exponents)


def _graded(exponents: Monomial, shift: Monomial) -> Monomial:
    """exponents - shift in graded coordinates (-degree, -e1, ..., -e(n-1)).

    These determine e_n, add like exponent vectors, and compare as tuples
    in reverse graded-lex order.  Both conversions build tuples of length n
    only: temporaries of other lengths fill further per-length tuple free
    lists in CPython and measurably raise peak memory."""
    neg_e = tuple(map(sub, shift, exponents))
    return (sum(neg_e), *islice(neg_e, len(neg_e) - 1))


def _ungraded(key: Monomial) -> Monomial:
    """The exponent vector with graded coordinates key."""
    return (*map(neg, islice(key, 1, None)), sum(islice(key, 1, None)) - key[0])


class LaurentPoly:
    """An immutable Laurent polynomial over Z.

    >>> x, y = LaurentPoly.variables(("x", "y"))
    >>> str((x + y) * (x - y))
    'x^2 - y^2'
    >>> str((x * x).div_exact(x))
    'x'
    """

    __slots__ = ("varnames", "terms", "_hash", "_key")

    def __init__(self, varnames: Sequence[str], terms: Mapping[Monomial, int]):
        names = tuple(varnames)
        clean: dict[Monomial, int] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(names):
                raise VariableMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {len(names)}"
                )
            if coeff:
                clean[tuple(exps)] = int(coeff)
        object.__setattr__(self, "varnames", names)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)

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
        if isinstance(other, int):
            return LaurentPoly.constant(self.varnames, other)
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
        return LaurentPoly(self.varnames, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.varnames, {e: -c for e, c in self.terms.items()})

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
        return LaurentPoly(self.varnames, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
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
        # square only while exponent bits remain
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.varnames, other)
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

        A monomial divisor shifts the exponents and divides each
        coefficient.  Otherwise monomial content is cleared from both
        operands first; the remaining honest polynomials are divided by
        multivariate long division in graded-lex order.  A nonzero remainder
        is an error, never a truncation, and the error names the
        remainder's leading term in the dividend's own exponents.

        Each step cancels the remainder's graded-lex largest term, and the
        divisor's leading term is left out of the update because it cancels
        by construction.  The remainder is kept in graded coordinates (see
        `_graded`), in which the graded-lex largest monomial is the smallest
        tuple, and its monomials sit in a heap: pushed when they enter the
        remainder, skipped when popped after they have cancelled.  Graded lex
        is a monomial order, so every term a step adds lies below the one it
        cancels, and the heap's smallest live entry is the remainder's
        largest term.  The steps therefore run in the order that rescanning
        the whole remainder for its maximum gives, with the same quotient
        and the same error; the leading terms strictly decrease, so each
        quotient monomial is written once.
        """
        self._check_compatible(divisor)
        if divisor.is_zero:
            raise InexactDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        if divisor.is_monomial:
            (exps_q, c_q), = divisor.terms.items()
            out = {}
            for e, c in self.terms.items():
                q, r = divmod(c, c_q)
                if r:
                    raise InexactDivisionError(
                        f"inexact division: coefficient {c} is not a multiple of {c_q}"
                    )
                out[tuple(map(sub, e, exps_q))] = q
            return LaurentPoly(self.varnames, out)
        shift_p = tuple(map(min, zip(*self.terms)))
        shift_q = tuple(map(min, zip(*divisor.terms)))
        current = {_graded(e, shift_p): c for e, c in self.terms.items()}
        divis = {_graded(e, shift_q): c for e, c in divisor.terms.items()}
        lead_q = min(divis)
        lc_q = divis.pop(lead_q)
        shift = tuple(map(sub, shift_p, shift_q))
        heap = list(current)
        heapq.heapify(heap)
        pop, push, get = heapq.heappop, heapq.heappush, current.get
        quotient: dict[Monomial, int] = {}
        while heap:
            lead_c = pop(heap)
            lc_c = current.pop(lead_c, 0)
            if not lc_c:
                continue
            diff = tuple(map(sub, lead_c, lead_q))
            q_exps = _ungraded(diff)
            if min(q_exps) < 0 or lc_c % lc_q:
                lead = tuple(map(add, _ungraded(lead_c), shift_p))
                raise InexactDivisionError(
                    f"inexact division: remainder has leading term {lead} -> {lc_c}"
                )
            coeff = lc_c // lc_q
            quotient[tuple(map(add, q_exps, shift))] = coeff
            for e, c in divis.items():
                exps = tuple(map(add, diff, e))
                old = get(exps)
                if old is None:
                    current[exps] = -coeff * c
                    push(heap, exps)
                else:
                    nc = old - coeff * c
                    if nc:
                        current[exps] = nc
                    else:
                        del current[exps]
        return LaurentPoly(self.varnames, quotient)

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Exact rational value of the polynomial at the given point.

        Every variable with a negative exponent somewhere in the polynomial
        must map to a nonzero rational.
        """
        values = []
        for i, name in enumerate(self.varnames):
            if name in point:
                values.append(Fraction(point[name]))
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
        names = data["vars"]
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise LaurentError(f"vars must be a list of strings, got {names!r}")
        if len(set(names)) != len(names):
            raise LaurentError(f"vars must be distinct, got {names}")
        terms = {tuple(t["exponents"]): _json_coeff(t["coeff"]) for t in data["terms"]}
        if not all(_is_int(e) for exps in terms for e in exps):
            raise LaurentError("exponents must be integers")
        if len(terms) != len(data["terms"]):
            raise LaurentError("two terms have the same exponent vector")
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
