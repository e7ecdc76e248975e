"""Flag functions phi_M: partial-flag counting and polynomial assembly.

phi_M evaluated on x_{i_1}(t_1)...x_{i_k}(t_k) is the sum over multiplicity
vectors a of chi(F_a) t^a, where F_a is the variety of ascending chains of
submodules 0 = U_0 < ... < U_k = M with U_j/U_{j-1} isomorphic to
S_{i_j}^{a_j}; the first letter consumes the socle end (GLS,
math/0402448 and math/0609138).  There is no 1/a!: the double quiver has no
loops, so a module whose composition factors are all S_v is semisimple, and
over every F_q each such partial flag refines to prod_j [a_j]_q! full flags
of the expanded word.  Hence chi(full) = a! chi(partial).

One recursion counts both.  A state is a quotient module and a letter
position j: with s the dimension of the socle part at v = i_j, it chooses
an a-dimensional subspace of that part, quotients by it and moves to j+1.
`chi` and `count_flags` are the same recursion with every a_j = 1.  The
field fixes the mode: over QQ only the unique choices a = 0 and a = s are
allowed, so the chain set is finite and field-independent and the exact
backend returns its cardinality; over GF(p) the points of a Grassmannian
Gr(a, s) are counted by orbit: one subspace stands for all whose quotients
it shows isomorphic, either by equal incoming rows (a quotient class) or
because an automorphism that scales the components of the module's
support graph moves one onto the other (an orbit of classes), and its
count is weighted by their number.  The p - 1 lines [1:x] between two
summands S_v of a direct sum are one orbit, so they cost one quotient at
every prime, not one each.  Every point is still counted, so this is no
torus fixed-point count.  When the QQ recursion meets
0 < a < s, the module is reduced mod increasing primes, skipping bad ones
(a denominator vanishes or the socle/radical layers change); each prime
counts every coefficient at once, and each coefficient's count polynomial
is evaluated at q = 1, its fit accepted once it is stable across two
additional primes.

The recursion is memoised in a `FlagCounter` keyed by each quotient
module itself: a `QuiverRep` compares and hashes by its presentation, so
two paths to an equal presentation share one entry.  Every top-level call
owns its counter unless the caller passes one in, so no memo outlives the
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .fields import PrimeField, RationalField
from .laurent import LaurentPoly
from .linalg import rref
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
    """Counting over QQ met a proper nonzero subspace of a socle part of
    dimension >= 2; the caller falls back to interpolation."""


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
    """The coefficients of phi_M keyed by multiplicity vector a, each with
    its backend provenance."""

    entries: dict = field(default_factory=dict)


MEMO_MAX_ENTRIES = 1 << 20


class FlagCounter:
    """Memo table for the counting recursion.  A call without `counter=`
    makes its own; pass one in to share entries across calls.

    One exact tier: a `QuiverRep` maps to a dict from state keys to
    results.  A module is keyed by itself, so only equal presentations
    (same quiver, field, dims and map entries) share entries.  The cap
    `MEMO_MAX_ENTRIES` counts one entry per stored coefficient, and at
    least one per stored result; reaching it only disables insertion,
    never correctness.
    """

    def __init__(self):
        self.tables: dict[QuiverRep, dict] = {}
        self.entry_count = 0

    def lookup(self, rep: QuiverRep, key: tuple):
        table = self.tables.get(rep)
        return None if table is None else table.get(key)

    def store(self, rep: QuiverRep, key: tuple, result) -> None:
        if self.entry_count >= MEMO_MAX_ENTRIES:
            return
        self.tables.setdefault(rep, {})[key] = result
        self.entry_count += max(1, len(result)) if isinstance(result, dict) else 1


def _word_matches_dims(rep: QuiverRep, word: Sequence[int]) -> bool:
    counts = {v: 0 for v in rep.quiver.vertices}
    for letter in word:
        if letter not in counts:
            raise PhiError(f"letter {letter} is not a vertex of the quiver")
        counts[letter] += 1
    return all(counts[v] == rep.dim(v) for v in rep.quiver.vertices)


def _socle_components(rep: QuiverRep, v: int, soc: list) -> list[int]:
    """For each vector of the socle basis soc at v, a label of its
    component of rep's torus.

    The support graph of rep has a node for each coordinate of each vertex
    and an edge for each nonzero map entry.  Its connected components, with
    those that a single socle vector touches merged, are the components:
    scaling every coordinate of one of them by its own nonzero constant
    commutes with every map, so it is an automorphism of rep, and each
    socle vector is an eigenvector of it.  The search stops once every
    socle vector is in one component, as in a connected module."""
    q = rep.quiver
    start, n = {}, 0
    for u, d in zip(q.vertices, rep.dims):
        start[u], n = n, n + d
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    supports = [[start[v] + j for j, x in enumerate(u) if x] for u in soc]
    for support in supports:
        for j in support[1:]:
            parent[find(j)] = find(support[0])
    # The roots whose components hold a socle vector.
    marked = {find(support[0]) for support in supports}
    for arrow, m in zip(q.arrows, rep.maps):
        source = start[arrow.source]
        for i, row in enumerate(m, start[arrow.target]):
            for j, x in enumerate(row, source):
                if x:
                    i, j = find(i), find(j)
                    if i != j:
                        parent[j] = i
                        if j in marked:
                            marked.remove(j)
                            marked.add(i)
                            if len(marked) == 1:
                                return [i] * len(soc)
    return [find(support[0]) for support in supports]


def _quotient_classes(rep: QuiverRep, v: int, soc: list, a: int,
                      labels: Optional[list[int]] = None) -> Iterable[tuple[int, list]]:
    """(weight, subspace) pairs over GF(p): for each orbit of the torus of
    rep on the classes of a-dimensional subspaces of the socle part
    span(soc) at v whose quotients are isomorphic, one member and the
    number of subspaces that the orbit's classes hold.  The weights sum to
    the Gaussian binomial [s choose a]_p.  The members are written in
    rep's coordinates, so their quotients have the presentations that the
    memo already shares.  labels are `_socle_components(rep, v, soc)`,
    computed here when not given.

    In a basis of M_v that starts with soc, the incoming maps have at socle
    coordinate i the row R_i, their row at the free column of soc[i]
    (`nullspace` gives soc[i] a 1 there, 0 at the other free columns, and
    nonzero entries elsewhere only at pivot columns to its left).  The
    quotient by the subspace with reduced row echelon coefficient matrix C
    and pivots pi has arrows out of v that depend only on pi, and at each
    kept socle coordinate c the incoming row R_c - sum_r C[r][c] R_{pi_r}.
    Subspaces with equal pi and equal sums therefore have isomorphic
    quotients.  The entries of C on a maximal linearly independent set of
    the R_{pi_r} with pi_r < c (the varied entries) tell the sums apart;
    the other entries stay 0, and each one left out multiplies the class
    size by p.

    Scaling each component of the torus by its own lambda is an
    automorphism g of rep, so the quotients by U and gU are isomorphic.  g
    scales soc[i] by the lambda of its component, so it keeps pi, keeps the
    entries that are 0 at 0, and maps the varied entry (r, c) of C to
    C[r][c] lambda_c / lambda_{pi_r}: it permutes the classes' members.
    Within one support S (the nonzero varied entries), read each entry of
    S in order as an edge between the components of pi_r and c, and let F
    be the entries that join two components no earlier entry has joined
    (a spanning forest).  Each orbit has exactly one member with the
    entries of F equal to 1, and (p - 1)^|F| members: the torus moves F's
    entries freely, and the elements that fix them are constant on each
    tree, so they fix the other entries of S too.  Those entries (one that
    joins a component to itself among them) stay free in 1..p-1, and the
    member's weight is the class size times (p - 1)^|F|.  Over GF(2) the
    torus is trivial and every orbit is one class.

    Every subspace is still counted once, with the count of its own
    quotient: orbits only group subspaces whose quotients are isomorphic,
    as the classes do, and the total at each prime is the number of
    points.  This is no torus fixed-point count (chi(F) = chi(F^T), which
    keeps only the subspaces that the torus fixes): for M + N that would
    drop the subspaces mixing the summands and make phi_{M+N} =
    phi_M phi_N hold by construction, where counting every point keeps it
    a check of independent computations."""
    field, p, s = rep.field, rep.field.p, len(soc)
    if labels is None:
        labels = _socle_components(rep, v, soc)
    arrows = rep.quiver.arrows_into(v)
    incoming = []
    for u in soc:
        f = max(j for j, x in enumerate(u) if x)
        incoming.append(tuple(x for arrow in arrows for x in rep.map_of(arrow)[f]))
    for pivots in combinations(range(s), a):
        # The pivot columns of the matrix with columns R_{pi_0}, R_{pi_1}, ...
        # are the rows r whose R_{pi_r} is independent of the rows above.
        independent = rref(field, tuple(zip(*(incoming[pivot] for pivot in pivots))))[1]
        free = [(r, c) for r, pivot in enumerate(pivots)
                for c in range(pivot + 1, s) if c not in pivots]
        varied = [(r, c) for r, c in free if r in independent]
        multiplicity = p ** (len(free) - len(varied))
        for size in range(len(varied) + 1):
            for support in combinations(varied, size):
                forest, loose, joined = [], [], {}
                for r, c in support:
                    left, right = labels[pivots[r]], labels[c]
                    while left in joined:
                        left = joined[left]
                    while right in joined:
                        right = joined[right]
                    if left == right:
                        loose.append((r, c))
                    else:
                        joined[left] = right
                        forest.append((r, c))
                weight = multiplicity * (p - 1) ** len(forest)
                for values in product(range(1, p), repeat=len(loose)):
                    subspace = [soc[pivot] for pivot in pivots]
                    for (r, c), x in zip(forest + loose, (1,) * len(forest) + values):
                        subspace[r] = tuple((y + x * z) % p for y, z in zip(subspace[r], soc[c]))
                    yield weight, subspace


def _flags(rep: QuiverRep, letters: tuple[int, ...], full: bool,
           counter: FlagCounter) -> dict[tuple[int, ...], int]:
    """{a: number of chains of type (letters, a)} over rep's field, zero
    counts omitted.  `full` forces every a_j = 1, counting composition
    series.  Over QQ a proper nonzero subspace of a socle part raises
    _SocleBranching; over GF(p) one quotient is built for each orbit of
    `_quotient_classes`, and its counts are multiplied by the orbit's
    weight.  The torus components are found once per state.

    A letter's last occurrence quotients away all of M_v, so a support
    vertex missing from the letters still to come can only be missing on
    entry; the callers check that once (such a word has no flags)."""
    if not letters:
        return {(): 1} if rep.is_zero else {}
    v, rest = letters[0], letters[1:]
    key = (full, letters)
    hit = counter.lookup(rep, key)
    if hit is not None:
        return hit
    soc = socle_basis_at(rep, v)
    s = len(soc)
    # With no later v, this step must take all of M_v.
    least = rep.dim(v) if v not in rest else 0
    choices = [a for a in ((1,) if full else range(s + 1)) if least <= a <= s]
    result: dict[tuple[int, ...], int] = {}
    labels = None
    for a in choices:
        if a == 0:
            classes: Iterable[tuple[int, list]] = ((1, []),)
        elif a == s:
            classes = ((1, soc),)
        elif isinstance(rep.field, RationalField):
            raise _SocleBranching(f"socle part of dimension {s} at vertex {v} over QQ")
        else:
            if labels is None:
                # Over GF(2) the torus is trivial: one label serves.
                labels = _socle_components(rep, v, soc) if rep.field.p > 2 else [0] * s
            classes = _quotient_classes(rep, v, soc, a, labels)
        for weight, subspace in classes:
            quotient = quotient_rep(rep, {v: subspace}) if subspace else rep
            for tail, count in _flags(quotient, rest, full, counter).items():
                avec = (a,) + tail
                result[avec] = result.get(avec, 0) + weight * count
    counter.store(rep, key, result)
    return result


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
    return _flags(rep, word, True, counter).get((1,) * len(word), 0)


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
    rep_p = _reduce_mod_p(rep, p, fingerprint(rep))
    if rep_p is None:
        raise PhiError(f"{p} is a bad prime for this module")
    return count_flags(rep_p, word, counter)


def _reduce_mod_p(rep: QuiverRep, p: int, invariants: tuple) -> Optional[QuiverRep]:
    """Reduce a rational module mod p, or None when p is a bad prime: a
    denominator vanishes mod p, or the reduction degenerates (its
    `fingerprint` differs from `invariants`, the rational module's), e.g.
    when an integer matrix entry is divisible by p.  Either way p is no
    interpolation point.
    """
    gf = PrimeField(p)
    try:
        maps = tuple(tuple(tuple(gf.coerce(x) for x in row) for row in m) for m in rep.maps)
    except ZeroDivisionError:
        return None
    rep_p = QuiverRep(rep.quiver, gf, rep.dims, maps)
    return rep_p if fingerprint(rep_p) == invariants else None


def _lagrange_weights(nodes: Sequence[int], xs: Sequence[int]) -> tuple[list[list[int]], int]:
    """Integer weights and one common denominator d for interpolation
    through the distinct nodes: for each x in xs a list w with
    sum_i w[i] y_i / d the value at x of the polynomial of degree below
    len(nodes) through the points (nodes[i], y_i).  d is positive."""
    dens = [math.prod(xi - xj for xj in nodes if xj != xi) for xi in nodes]
    d = math.lcm(*dens)
    return [[math.prod(x - xj for xj in nodes if xj != xi) * (d // den)
             for xi, den in zip(nodes, dens)] for x in xs], d


def _solve(rep: QuiverRep, letters: tuple[int, ...], full: bool,
           counter: FlagCounter) -> tuple[dict[tuple[int, ...], ChiResult], tuple[int, ...]]:
    """The Euler characteristics {a: ChiResult} of `_flags`, and the primes
    counted over (none when the exact backend sufficed).

    Exact whenever the QQ recursion never branches; otherwise every prime
    counts all coefficients, and each coefficient takes the first fit that
    two further primes confirm.  In full mode the all-ones coefficient is
    fitted even when it counts 0 at every prime.  A coefficient that never
    stabilizes is an explicit failure, never a guess.
    """
    try:
        exact = _flags(rep, letters, full, counter)
    except _SocleBranching:
        pass
    else:
        return {a: ChiResult(count, EXACT) for a, count in exact.items()}, ()
    tracked = {(1,) * len(letters)} if full else set()
    counts: list[tuple[int, dict]] = []
    results: dict[tuple[int, ...], ChiResult] = {}
    invariants = fingerprint(rep)
    for p in PRIMES:
        rep_p = _reduce_mod_p(rep, p, invariants)
        if rep_p is None:
            continue
        counts.append((p, _flags(rep_p, letters, full, counter)))
        tracked.update(counts[-1][1])
        if len(counts) < 3:
            continue
        primes = tuple(q for q, _ in counts)
        # A shorter head primes[:m] is confirmed only by primes[m:m+2], a
        # test that already failed when those two were the newest primes.
        (*confirm, at_one), d = _lagrange_weights(primes[:-2], primes[-2:] + (1,))
        for a in sorted(tracked - results.keys()):
            ys = [table.get(a, 0) for _, table in counts]
            # zip stops at the head: the weights cover all but the last two.
            if all(sum(w * y for w, y in zip(weights, ys)) == c * d
                   for weights, c in zip(confirm, ys[-2:])):
                total = sum(w * y for w, y in zip(at_one, ys))
                if total % d:
                    raise PhiError(f"interpolated chi {Fraction(total, d)} is not an integer")
                results[a] = ChiResult(total // d, INTERPOLATED, primes)
        if tracked <= results.keys():
            return results, primes
    a = min(tracked - results.keys(), default=None)
    points = [(q, table.get(a, 0)) for q, table in counts]
    raise ChiUndeterminedError(
        f"point counts {points} never stabilized within the prime cap"
    )


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
    if not _word_matches_dims(rep, word):
        return ChiResult(0, EXACT)
    results, _ = _solve(rep, word, True, counter)
    return results.get((1,) * len(word), ChiResult(0, EXACT))


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


def phi_eval(
    rep: QuiverRep,
    letters: Sequence[int],
    params: Optional[Sequence[str]] = None,
    counter: Optional[FlagCounter] = None,
) -> PhiReport:
    """phi_M over the word x_{i_1}(t_1)...x_{i_k}(t_k) as a polynomial in the
    t-parameters: the coefficient of t^a is the Euler characteristic of the
    partial flags of type (letters, a), from one `_solve` over all a.  A
    word that misses a vertex of M's support has no flags: phi_M is the
    exact zero polynomial."""
    if counter is None:
        counter = FlagCounter()
    letters = tuple(letters)
    if params is None:
        params = tuple(f"t{i + 1}" for i in range(len(letters)))
    params = tuple(params)
    if len(params) != len(letters):
        raise PhiError("letters and parameters must have equal length")
    if len(set(params)) != len(params):
        raise PhiError(f"parameter names must be distinct, got {list(params)}")
    if not isinstance(rep.field, RationalField):
        raise PhiError("phi_eval expects a module over the rationals")
    bad = sorted(set(letters) - set(rep.quiver.vertices))
    if bad:
        raise PhiError(f"letters {bad} are not vertices of the quiver")
    if any(rep.dim(v) and v not in letters for v in rep.quiver.vertices):
        return PhiReport(LaurentPoly(params, {}), EXACT, (), ChiTable())
    results, primes = _solve(rep, letters, False, counter)
    poly = LaurentPoly(params, {a: r.value for a, r in results.items() if r.value})
    return PhiReport(poly, INTERPOLATED if primes else EXACT, primes, ChiTable(results))


# ----------------------------------------------------------------------
# identity verification


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
