"""Flag functions phi_M: composition-series counting and polynomial assembly.

phi_M evaluated on x_{i_1}(t_1)...x_{i_k}(t_k) is the sum over multiplicity
vectors a of chi_{i^a,M} t^a / a!, where chi counts ascending chains of
submodules whose k-th factor is the simple at the k-th expanded letter and
the first letter consumes the socle end.

chi is computed by a bottom-up recursion (enumerate lines in the demanded
socle part, quotient, recurse).  The field fixes the mode: over QQ only
socle parts of dimension <= 1 are allowed, so the chain set is finite and
field-independent and the exact backend returns its cardinality; over GF(p)
every line is enumerated.  When the QQ recursion meets a larger socle part,
chi reduces the module mod increasing primes, skipping bad ones (a
denominator vanishes or the socle/radical layers change), counts the chains
over each, and evaluates the count polynomial at q = 1, accepting the fit
once it is stable across two additional primes.

The recursion is memoised in a `FlagCounter` keyed by the exact
presentation of each quotient module.  Every top-level call owns its
counter unless the caller passes one in, so no memo outlives the call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterable, Mapping, Optional, Sequence

from .cluster import _compositions
from .fields import PrimeField, RationalField
from .laurent import LaurentPoly
from .prepmod import (
    QuiverRep,
    direct_sum,
    ext1_dim,
    fingerprint,
    quotient_rep,
    socle_basis_at,
)


class PhiError(Exception):
    pass


class ChiUndeterminedError(PhiError):
    """Interpolation never stabilized within the prime cap."""


class _SocleBranching(PhiError):
    """Counting over QQ met a >= 2-dimensional socle part; chi falls back to
    interpolation."""


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

EXACT = "exact-enumeration"
INTERPOLATED = "interpolated"


@dataclass(frozen=True)
class ChiResult:
    value: int
    backend: str
    primes: tuple[int, ...] = ()


@dataclass
class ChiTable:
    """Computed Euler characteristics keyed by expanded type words, with
    per-entry backend provenance."""

    entries: dict = field(default_factory=dict)

    def record(self, word: tuple[int, ...], result: ChiResult) -> None:
        self.entries[word] = result

    def to_json(self) -> dict:
        return {
            ",".join(map(str, word)): {
                "chi": r.value,
                "backend": r.backend,
                "primes_used": list(r.primes),
            }
            for word, r in sorted(self.entries.items())
        }


def _default_memo_cap() -> int:
    raw = os.environ.get("CLUSTERFORGE_MAX_MEM")
    if not raw:
        return 1 << 20
    try:
        return max(1024, int(raw) // 512)
    except ValueError:
        return 1 << 20


def _module_key(rep: QuiverRep) -> tuple:
    """Quiver kind, field, dimension vector and the map entries in one flat
    sequence (the dimension vector fixes every shape).  GF(p) residues pack
    into bytes when they fit; rationals become numerator/denominator ints,
    which hash much faster than Fractions."""
    entries = [x for m in rep.maps for row in m for x in row]
    field = rep.field
    if isinstance(field, PrimeField):
        flat = bytes(entries) if field.p < 256 else tuple(entries)
    else:
        flat = tuple([n for x in entries for n in (x.numerator, x.denominator)])
    return (rep.quiver.kind, field.name, rep.dims, flat)


class FlagCounter:
    """Memo table for the counting recursions.  A call without `counter=`
    makes its own; pass one in to share entries across calls.

    One exact tier: a module key (see `_module_key`) maps to a dict from
    type words to chain counts, so only identical presentations share
    entries.  The entry cap (from CLUSTERFORGE_MAX_MEM, 512 bytes per entry
    assumed) only disables insertion, never correctness.
    """

    def __init__(self, max_entries: Optional[int] = None):
        self.tables: dict[tuple, dict[tuple[int, ...], int]] = {}
        self.max_entries = _default_memo_cap() if max_entries is None else max_entries
        self.entry_count = 0

    def lookup(self, rep: QuiverRep, word: tuple[int, ...]) -> Optional[int]:
        table = self.tables.get(_module_key(rep))
        return None if table is None else table.get(word)

    def store(self, rep: QuiverRep, word: tuple[int, ...], count: int) -> None:
        if self.entry_count >= self.max_entries:
            return
        self.tables.setdefault(_module_key(rep), {})[word] = count
        self.entry_count += 1


def _word_matches_dims(rep: QuiverRep, word: Sequence[int]) -> bool:
    counts = {v: 0 for v in rep.quiver.vertices}
    for letter in word:
        if letter not in counts:
            raise PhiError(f"letter {letter} is not a vertex of the quiver")
        counts[letter] += 1
    return all(counts[v] == rep.dim(v) for v in rep.quiver.vertices)


def _lines_of_subspace(field: PrimeField, basis_vectors: list) -> Iterable[tuple]:
    """Canonical representatives of the lines of a GF(p)-span: coefficient
    tuples with first nonzero entry 1, mapped through the basis."""
    p = field.p
    dim = len(basis_vectors[0])
    for position, lead in enumerate(basis_vectors):
        rest = basis_vectors[position + 1 :]
        for coeffs in product(range(p), repeat=len(rest)):
            vec = list(lead)
            for c, b in zip(coeffs, rest):
                if c:
                    for idx in range(dim):
                        vec[idx] = (vec[idx] + c * b[idx]) % p
            yield tuple(vec)


def count_flags(rep: QuiverRep, word: Sequence[int], counter: Optional[FlagCounter] = None) -> int:
    """Number of composition series of the given type.

    Over GF(p) this is the chain count over that field.  Over QQ it is the
    exact chi backend: a demanded socle part of dimension >= 2 has
    infinitely many lines, so it raises PhiError.  A letter that is not a
    vertex raises PhiError.
    """
    if counter is None:
        counter = FlagCounter()
    word = tuple(word)
    if not _word_matches_dims(rep, word):
        return 0
    return _count(rep, word, counter)


def _count(rep: QuiverRep, word: tuple[int, ...], counter: FlagCounter) -> int:
    if not word:
        return 1 if rep.is_zero else 0
    hit = counter.lookup(rep, word)
    if hit is not None:
        return hit
    v = word[0]
    soc = socle_basis_at(rep, v)
    if not soc:
        result = 0
    elif len(soc) == 1:
        result = _count(quotient_rep(rep, {v: (soc[0],)}), word[1:], counter)
    elif isinstance(rep.field, RationalField):
        raise _SocleBranching(f"socle part of dimension {len(soc)} at vertex {v} over QQ")
    else:
        result = 0
        for vec in _lines_of_subspace(rep.field, soc):
            result += _count(quotient_rep(rep, {v: (vec,)}), word[1:], counter)
    counter.store(rep, word, result)
    return result


def count_flags_mod_p(rep: QuiverRep, word: Sequence[int], p: Optional[int] = None,
                      counter: Optional[FlagCounter] = None) -> int:
    """Chain count over a prime field.

    Accepts either a module already over GF(p), with p omitted or equal to
    its prime, or a rational module together with p (reduced here; a bad
    prime is an error)."""
    if isinstance(rep.field, PrimeField):
        if p is not None and p != rep.field.p:
            raise PhiError(f"the module is over {rep.field.name}, not GF({p})")
        return count_flags(rep, word, counter)
    if p is None:
        raise PhiError("count_flags_mod_p needs a prime for a rational module")
    rep_p = _reduce_mod_p(rep, p)
    if rep_p is None:
        raise PhiError(f"{p} is a bad prime for this module")
    return count_flags(rep_p, word, counter)


def _reduce_mod_p(rep: QuiverRep, p: int) -> Optional[QuiverRep]:
    """Reduce a rational module mod p, or None when p is a bad prime: a
    denominator vanishes mod p, or the reduction degenerates (its
    socle/radical filtration invariants differ from the rational ones),
    e.g. when an integer matrix entry is divisible by p.  Either way p is
    no interpolation point.  Cached on the instance, None included.
    """
    cache = rep.__dict__.get("_mod_p_cache")
    if cache is None:
        cache = {}
        object.__setattr__(rep, "_mod_p_cache", cache)
    if p not in cache:
        gf = PrimeField(p)
        try:
            maps = tuple(
                tuple(tuple(gf.coerce(x) for x in row) for row in m) for m in rep.maps
            )
        except ZeroDivisionError:
            rep_p = None
        else:
            rep_p = QuiverRep(rep.quiver, gf, rep.dims, maps)
            if fingerprint(rep_p) != fingerprint(rep):
                rep_p = None
        cache[p] = rep_p
    return cache[p]


def _lagrange_eval(points: Sequence[tuple[int, int]], x: int) -> Fraction:
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def chi(rep: QuiverRep, word: Sequence[int], counter: Optional[FlagCounter] = None) -> ChiResult:
    """Euler characteristic of the composition-series variety of type word.

    Uses the exact backend whenever every recursion step meets a socle part
    of dimension <= 1; otherwise counts points over increasing primes and
    interpolates, accepting the fit once two further primes confirm it.
    An unstable interpolation is an explicit failure, never a guess.
    """
    if counter is None:
        counter = FlagCounter()
    word = tuple(word)
    if not isinstance(rep.field, RationalField):
        raise PhiError("chi expects a module over the rationals")
    try:
        return ChiResult(count_flags(rep, word, counter), EXACT)
    except _SocleBranching:
        pass
    points: list[tuple[int, int]] = []
    for p in PRIMES:
        rep_p = _reduce_mod_p(rep, p)
        if rep_p is None:
            continue
        points.append((p, count_flags(rep_p, word, counter)))
        # A shorter head points[:m] is confirmed only by points[m:m+2], a
        # test that already failed when those two were the newest points.
        head = points[:-2]
        if head and all(_lagrange_eval(head, q) == c for q, c in points[-2:]):
            value = _lagrange_eval(head, 1)
            if value.denominator != 1:
                raise PhiError(f"interpolated chi {value} is not an integer")
            return ChiResult(int(value), INTERPOLATED, tuple(q for q, _ in points))
    raise ChiUndeterminedError(
        f"point counts {points} never stabilized within the prime cap"
    )


# ----------------------------------------------------------------------
# phi assembly


@dataclass
class PhiReport:
    poly: LaurentPoly
    backend: str
    primes: tuple[int, ...]
    table: ChiTable

    def to_json(self) -> dict:
        return {
            "polynomial": self.poly.to_json(),
            "backend": self.backend,
            "primes_used": list(self.primes),
        }


def _expansions(word_positions: Mapping[int, list[int]], dims: Mapping[int, int],
                length: int) -> Iterable[tuple[int, ...]]:
    """All multiplicity vectors a with per-vertex letter counts equal to the
    dimension vector, as full-length tuples."""
    items = sorted(word_positions)
    per_vertex = [_compositions(dims[v], len(word_positions[v])) for v in items]
    # The concatenated compositions give the multiplicity at slots[k];
    # order lists the k of each word position in turn.
    slots = [pos for v in items for pos in word_positions[v]]
    order = sorted(range(length), key=slots.__getitem__)
    for combos in product(*per_vertex):
        flat = sum(combos, ())
        yield tuple([flat[k] for k in order])


def phi_eval(
    rep: QuiverRep,
    letters: Sequence[int],
    params: Optional[Sequence[str]] = None,
    counter: Optional[FlagCounter] = None,
) -> PhiReport:
    """phi_M over the word x_{i_1}(t_1)...x_{i_k}(t_k) as a polynomial in the
    t-parameters.

    Only multiplicity vectors whose per-vertex letter counts equal dim M
    contribute; each coefficient chi / prod a_j! is checked to be an integer
    before emission.
    """
    if counter is None:
        counter = FlagCounter()
    letters = tuple(letters)
    if params is None:
        params = tuple(f"t{i + 1}" for i in range(len(letters)))
    params = tuple(params)
    if len(params) != len(letters):
        raise PhiError("letters and parameters must have equal length")
    varnames = params
    table = ChiTable()
    positions: dict[int, list[int]] = {}
    for idx, letter in enumerate(letters):
        positions.setdefault(letter, []).append(idx)
    bad = [v for v in positions if v not in rep.quiver.vertices]
    if bad:
        raise PhiError(f"letters {sorted(bad)} are not vertices of the quiver")
    dims = {v: rep.dim(v) for v in rep.quiver.vertices}
    for v, d in dims.items():
        if d and v not in positions:
            return PhiReport(LaurentPoly.zero(varnames), EXACT, (), table)
    terms: dict[tuple[int, ...], int] = {}
    backend = EXACT
    primes_used: set[int] = set()
    for avec in _expansions(positions, dims, len(letters)):
        expanded = tuple(
            letter for letter, mult in zip(letters, avec) for _ in range(mult)
        )
        result = chi(rep, expanded, counter)
        table.record(expanded, result)
        if result.backend == INTERPOLATED:
            backend = INTERPOLATED
            primes_used.update(result.primes)
        if result.value == 0:
            continue
        denom = 1
        for a in avec:
            denom *= factorial(a)
        coeff = Fraction(result.value, denom)
        if coeff.denominator != 1:
            raise PhiError(
                f"coefficient chi/a! = {coeff} is not an integer for a = {avec}"
            )
        terms[avec] = terms.get(avec, 0) + int(coeff)
    poly = LaurentPoly(varnames, terms)
    return PhiReport(poly, backend, tuple(sorted(primes_used)), table)


# ----------------------------------------------------------------------
# identity verification and positivity


def _first_difference(p: LaurentPoly, q: LaurentPoly) -> Optional[str]:
    diff = p - q
    if diff.is_zero:
        return None
    exps, coeff = diff.sorted_terms()[0]
    return str(LaurentPoly.monomial(diff.varnames, exps, coeff))


def verify_multiplication(
    m: QuiverRep,
    n: QuiverRep,
    letters: Sequence[int],
    middle_terms: Optional[tuple[QuiverRep, QuiverRep]] = None,
    counter: Optional[FlagCounter] = None,
) -> dict:
    """Check phi_M phi_N = phi_{M + N}, and when the two middle terms X, Y of
    the non-split extensions are supplied (dim Ext^1 must be 1), also
    phi_M phi_N = phi_X + phi_Y.  Failures carry a differing monomial."""
    if counter is None:
        counter = FlagCounter()
    pm = phi_eval(m, letters, counter=counter)
    pn = phi_eval(n, letters, counter=counter)
    product = pm.poly * pn.poly
    psum = phi_eval(direct_sum(m, n), letters, counter=counter)
    report: dict = {
        "product_rule": {
            "holds": product == psum.poly,
            "witness": _first_difference(product, psum.poly),
        }
    }
    if middle_terms is not None:
        x, y = middle_terms
        ext = ext1_dim(m, n)
        rhs = phi_eval(x, letters, counter=counter).poly + phi_eval(y, letters, counter=counter).poly
        report["exchange_rule"] = {
            "ext1": ext,
            "holds": ext == 1 and product == rhs,
            "witness": _first_difference(product, rhs),
        }
    return report


def positivity_check(
    summands: Sequence[QuiverRep],
    letters: Sequence[int],
    point: Sequence[Fraction | int],
    labels: Optional[Sequence[str]] = None,
    counter: Optional[FlagCounter] = None,
) -> dict:
    """Exact phi values of each summand at a positive parameter point."""
    values = [Fraction(x) for x in point]
    if len(values) != len(letters):
        raise PhiError("point must supply one value per word letter")
    if any(v <= 0 for v in values):
        raise PhiError("positivity check requires strictly positive coordinates")
    if labels is None:
        labels = [f"T{i + 1}" for i in range(len(summands))]
    if counter is None:
        counter = FlagCounter()
    rows = []
    all_positive = True
    for label, rep in zip(labels, summands):
        report = phi_eval(rep, letters, counter=counter)
        assignment = {p: v for p, v in zip(report.poly.varnames, values)}
        value = report.poly.evaluate(assignment)
        rows.append(
            {
                "label": label,
                "value": value,
                "positive": value > 0,
                "backend": report.backend,
            }
        )
        all_positive = all_positive and value > 0
    return {"rows": rows, "all_positive": all_positive}
