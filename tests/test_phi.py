import collections
import gc
import itertools
import math
import random
import re
import weakref
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import phi as phi_module
from clusterforge.cli import main
from clusterforge.fields import QQ, PrimeField
from clusterforge.laurent import LaurentPoly
from clusterforge.nmatrix import A3_W0_LETTERS, D4_W0_LETTERS, Word, minor, product
from clusterforge.phi import (
    EXACT,
    INTERPOLATED,
    ChiResult,
    FlagCounter,
    PhiError,
    chi,
    count_flags,
    count_flags_mod_p,
    phi_eval,
    verify_multiplication,
)
from clusterforge.prepmod import (
    QuiverRep,
    build_algebra_basis,
    check_relation,
    direct_sum,
    dynkin_quiver,
    fingerprint,
    functor_E,
    is_isomorphic,
    quotient_rep,
    random_module,
    simple_rep,
    socle_basis_at,
    zero_rep,
)

A2 = dynkin_quiver("A2")
D4 = dynkin_quiver("D4")


# ----------------------------------------------------------------------
# flag counting


def test_single_simple_has_one_flag():
    s = simple_rep(A2, 1)
    assert count_flags_mod_p(s, (1,), 2) == 1
    assert chi(s, (1,)).value == 1


def test_uniserial_q1_counts(a2_algebra):
    q1 = a2_algebra.injective(1)
    assert count_flags_mod_p(q1, (1, 2), 2) == 1
    assert count_flags_mod_p(q1, (2, 1), 2) == 0


def test_lines_in_a_plane():
    ss = direct_sum(simple_rep(A2, 1), simple_rep(A2, 1))
    for p in (2, 3, 5):
        assert count_flags_mod_p(ss, (1, 1), p) == p + 1


def test_exact_backend_is_field_independent(d4_algebra):
    q4 = d4_algebra.injective(4)
    word = (4, 3, 1, 2, 3, 4)
    counts = {p: count_flags_mod_p(q4, word, p) for p in (2, 3, 5)}
    assert set(counts.values()) == {1}


def test_dimension_mismatch_counts_zero(a2_algebra):
    q1 = a2_algebra.injective(1)
    assert count_flags(q1, (1, 1)) == 0
    assert count_flags(q1, (1,)) == 0


def test_count_flags_mod_p_requires_prime_for_rational_input(a2_algebra):
    with pytest.raises(PhiError):
        count_flags_mod_p(a2_algebra.injective(1), (1, 2))
    gf = PrimeField(3)
    assert count_flags_mod_p(a2_algebra.injective(1), (1, 2), 3) == 1


def test_count_flags_mod_p_rejects_a_second_prime_for_a_prime_field_module():
    gf3 = PrimeField(3)
    ss = direct_sum(simple_rep(A2, 1, gf3), simple_rep(A2, 1, gf3))
    assert count_flags_mod_p(ss, (1, 1)) == 3 + 1
    assert count_flags_mod_p(ss, (1, 1), 3) == 3 + 1
    with pytest.raises(PhiError, match="GF\\(5\\)"):
        count_flags_mod_p(ss, (1, 1), 5)


# ----------------------------------------------------------------------
# socle subspaces by quotient class


def _subspaces(field, basis, a):
    """The a-dimensional subspaces of a GF(p)-span, each once: the rows of
    every a x s reduced row echelon coefficient matrix, mapped through the
    basis.  None and all of the span are one subspace over any field."""
    if a in (0, len(basis)):
        yield list(basis[:a])
        return
    p, s = field.p, len(basis)
    for pivots in itertools.combinations(range(s), a):
        free = [(r, c) for r, pivot in enumerate(pivots)
                for c in range(pivot + 1, s) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [basis[pivot] for pivot in pivots]
            for (r, c), x in zip(free, values):
                rows[r] = tuple((y + x * z) % p for y, z in zip(rows[r], basis[c]))
            yield rows


def _reference_flags(rep, letters, memo):
    """`_flags` in partial mode with one quotient per subspace of each
    Grassmannian, memoised only on equal presentations.  Over QQ it takes
    only none or all of each socle part."""
    if not letters:
        return {(): 1} if rep.is_zero else {}
    key = (rep, letters)
    if key not in memo:
        v, rest = letters[0], letters[1:]
        soc = socle_basis_at(rep, v)
        result = {}
        for a in range(rep.dim(v) if v not in rest else 0, len(soc) + 1):
            for w in _subspaces(rep.field, soc, a):
                for tail, count in _reference_flags(quotient_rep(rep, {v: w}), rest, memo).items():
                    result[(a,) + tail] = result.get((a,) + tail, 0) + count
        memo[key] = result
    return memo[key]


def _gaussian_binomial(s, a, p):
    return math.prod(p ** (s - i) - 1 for i in range(a)) // math.prod(p ** (i + 1) - 1 for i in range(a))


def _mixed(rep, rng):
    """An isomorphic copy of a GF(p) module: random elementary changes of
    basis at each vertex, so that socle vectors mix coordinates."""
    p, q = rep.field.p, rep.quiver
    maps = [[list(row) for row in m] for m in rep.maps]
    for u in q.vertices:
        for _ in range(2 * rep.dim(u) if rep.dim(u) > 1 else 0):
            # new basis at u: coordinate i += x * coordinate j
            i, j = rng.sample(range(rep.dim(u)), 2)
            x = rng.randrange(1, p)
            for arrow, m in zip(q.arrows, maps):
                if arrow.target == u:
                    m[i] = [(y + x * z) % p for y, z in zip(m[i], m[j])]
                if arrow.source == u:
                    for row in m:
                        row[j] = (row[j] - x * row[i]) % p
    return QuiverRep(q, rep.field, rep.dims, tuple(tuple(map(tuple, m)) for m in maps))


A4_W0_LETTERS = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)


def _without_p(k, p):
    while k % p == 0:
        k //= p
    return k


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_classes_agree_with_every_subspace(p):
    # Direct sums put part of a socle outside the image of the incoming
    # arrows, where whole families of subspaces share one quotient class,
    # and scaling one summand joins classes into one orbit of the torus;
    # elsewhere the free entries tell the classes of one pivot pattern apart.
    rng = random.Random(p)
    merged = varied = joined = 0
    for kind, word in (("A3", A3_W0_LETTERS), ("A4", A4_W0_LETTERS), ("D4", D4_W0_LETTERS)):
        for _ in range(6):
            m, n = random_module(kind, rng, 4), random_module(kind, rng, 4)
            for reduced in (phi_module._reduce_mod_p(r, p, phi_module._certificate(r)) for r in (m, n, direct_sum(m, n))):
                if reduced is None:
                    continue
                mixed = _mixed(reduced, rng)
                assert check_relation(mixed)[0]
                for rep, v in itertools.product((reduced, mixed), reduced.quiver.vertices):
                    soc = socle_basis_at(rep, v)
                    if len(soc) < 2:
                        continue
                    for a in range(1, len(soc)):
                        weights = [k for k, _ in phi_module._quotient_classes(rep, v, soc, a)]
                        assert sum(weights) == _gaussian_binomial(len(soc), a, p)
                        merged += max(weights) > 1
                        varied += len(weights) > math.comb(len(soc), a)
                        # An orbit of more than one class weighs a multiple
                        # of p - 1: a factor that is not a power of p.
                        joined += any(_without_p(k, p) > 1 for k in weights)
                    letters = (v,) + word
                    assert (phi_module._flags(rep, letters, False, FlagCounter())
                            == _reference_flags(rep, letters, {})), (kind, rep.dims, v)
    assert merged > 0 and varied > 0
    assert joined > 0 if p > 2 else joined == 0


# The two ways the recursion builds a quotient: `_emptied` when it takes all
# of M_v, `quotient_rep` otherwise.
QUOTIENTS = ("quotient_rep", "_emptied")


def _counting(monkeypatch, names, key):
    """Wrap phi_module.<name> for one name or each of a tuple of names, to
    count their calls together by key(first argument)."""
    counts = collections.Counter()
    for name in (names,) if isinstance(names, str) else names:
        def counted(rep, *args, real=getattr(phi_module, name)):
            counts[key(rep)] += 1
            return real(rep, *args)

        monkeypatch.setattr(phi_module, name, counted)
    return counts


def test_socle_lines_of_a_semisimple_part_are_one_class_per_pivot(monkeypatch):
    # S1^3 over GF(13) has [3]_13! = 183 * 14 full flags.  No arrow reaches
    # its socle, so all subspaces with one pivot pattern share a quotient:
    # the first step builds 3 quotients, not one for each of the 183 lines.
    built = _counting(monkeypatch, QUOTIENTS, lambda rep: rep.dims)
    s1 = simple_rep(A2, 1, PrimeField(13))
    assert count_flags(direct_sum(s1, s1, s1), (1, 1, 1)) == 183 * 14
    assert built == {(3, 0): 3, (2, 0): 2, (1, 0): 1}


def test_a_product_rule_pair_makes_fewer_flag_calls(monkeypatch):
    # The third A3 pair of the benchmark's product-rule pool (random.Random(0),
    # two random_module("A3", rng, 4) per pair).  One quotient per subspace
    # made 881 recursive calls here, one per quotient class 580, one per
    # orbit 424, and with empty-vertex letters dropped 385.
    rng = random.Random(0)
    for _ in range(3):
        m, n = random_module("A3", rng, 4), random_module("A3", rng, 4)
    assert (m.dims, n.dims) == ((2, 2, 0), (1, 1, 2))
    calls = _counting(monkeypatch, "_packed_flags", lambda rep: rep.field.name)
    assert verify_multiplication(m, n, A3_W0_LETTERS)["product_rule"]["holds"]
    assert sum(calls.values()) <= 385


def test_lines_between_two_summands_are_one_orbit(monkeypatch):
    # I1 + I1 of A2 over GF(13): of the 14 lines in its socle S1 + S1, the
    # 12 lines [1:x] off the two summands are one orbit, as scaling the
    # second summand by x is an automorphism.  So GF(13) builds GF(2)'s 15
    # quotients; one per quotient class built 50, and one per orbit built
    # 17 before each (module, vertex) kept its quotients for the letters
    # that come back to it.
    i1 = build_algebra_basis("A2").injective(1)
    doubled = direct_sum(i1, i1)
    reps = {p: phi_module._reduce_mod_p(doubled, p, phi_module._certificate(doubled)) for p in (2, 13)}
    soc = socle_basis_at(reps[13], 1)
    weights = [k for k, _ in phi_module._quotient_classes(reps[13], 1, soc, 1)]
    assert weights == [1, 12, 1] and sum(weights) == _gaussian_binomial(2, 1, 13)
    built = _counting(monkeypatch, QUOTIENTS, lambda rep: rep.field.name)
    for rep in reps.values():
        assert (phi_module._flags(rep, (1, 2, 1, 2), False, FlagCounter())
                == _reference_flags(rep, (1, 2, 1, 2), {}))
    assert built == {"GF(2)": 15, "GF(13)": 15}


def test_a_direct_sum_builds_as_many_quotients_at_every_prime(monkeypatch):
    # M + N of the first D4 pair of the benchmark's product-rule pool
    # (random.Random(0), after its 8 A3 pairs).  One quotient per quotient
    # class built 121, 143, 187, 231 and 319 at p = 2, 3, 5, 7 and 11: the
    # lines between the two summands grew with p.  One per orbit built 121
    # at each prime, and 66 once each (module, vertex) keeps its quotients.
    rng = random.Random(0)
    for _ in range(8):
        random_module("A3", rng, 4), random_module("A3", rng, 4)
    m, n = random_module("D4", rng, 3), random_module("D4", rng, 3)
    built = _counting(monkeypatch, QUOTIENTS, lambda rep: rep.field.name)
    report = phi_eval(direct_sum(m, n), D4_W0_LETTERS)
    assert report.primes == (2, 3, 5, 7, 11)
    assert {name: built[name] for name in built if name != "QQ"} == {f"GF({p})": 66 for p in report.primes}


def test_d6_q4_keeps_its_memo_sharing(monkeypatch):
    # Q4 of D6 merges no quotient classes on this word, so its quotients
    # and memo keys are those of one quotient per subspace: a change of
    # their presentation would show as more recursive calls.  Dropping the
    # letters at empty vertices took 31 calls off each prime's count.
    calls = _counting(monkeypatch, "_packed_flags", lambda rep: rep.field.name)
    report = phi_eval(build_algebra_basis("D6").injective(4), (1, 2, 4, 6, 3, 5) * 5)
    limits = {"QQ": 158, "GF(2)": 3064, "GF(3)": 3596, "GF(5)": 4660}
    assert set(calls) == set(limits)
    assert all(calls[name] <= limit for name, limit in limits.items()), dict(calls)
    assert report.backend == INTERPOLATED and report.primes == (2, 3, 5)
    exps = (0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 0, 2, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0)
    assert report.poly.terms == {exps: 1}


def test_each_module_meets_its_socle_once_per_vertex(monkeypatch):
    # Suffixes that bring a module back to a letter at the same vertex
    # share its expansion there: one socle basis per (module, vertex) and
    # counter.  Without it this word made 8,774 calls for 5,724 pairs.
    seen = collections.Counter()

    def socle_basis_at(rep, v, real=phi_module.socle_basis_at):
        seen[rep, v] += 1
        return real(rep, v)

    monkeypatch.setattr(phi_module, "socle_basis_at", socle_basis_at)
    phi_eval(build_algebra_basis("D6").injective(4), (1, 2, 4, 6, 3, 5) * 5)
    assert len(seen) > 5000 and max(seen.values()) == 1


# ----------------------------------------------------------------------
# letters that do not choose


def _good_reductions(rep, primes):
    return [r for r in (phi_module._reduce_mod_p(rep, p, phi_module._certificate(rep)) for p in primes) if r is not None]


def test_emptying_a_vertex_is_its_quotient_by_the_whole_socle_part():
    # Where the socle part at v is all of M_v, `_emptied` must give the
    # presentation that quotient_rep gives, or the memo would stop sharing
    # states.  The socle series of each module reaches many such vertices,
    # some of them next to vertices of dimension 0, whose maps are ().
    rng = random.Random(33)
    checked = beside_empty = 0
    for kind in ("A3", "A4", "D4", "D5"):
        for _ in range(4):
            m = random_module(kind, rng, 6)
            for rep in [m] + _good_reductions(m, (2, 3, 5)):
                while not rep.is_zero:
                    bases = {v: socle_basis_at(rep, v) for v in rep.quiver.vertices}
                    for v, soc in bases.items():
                        if soc and len(soc) == rep.dim(v):
                            emptied, expected = phi_module._emptied(rep, v), quotient_rep(rep, {v: soc})
                            assert emptied == expected and hash(emptied) == hash(expected), (kind, rep.dims, v)
                            checked += 1
                            beside_empty += any(not rep.dim(a.target) for a in rep.quiver.arrows_from[v])
                    rep = quotient_rep(rep, bases)
    assert checked > 150 and beside_empty > 50, (checked, beside_empty)


def _q_factorial(a, q):
    return math.prod((q ** i - 1) // (q - 1) for i in range(1, a + 1))


def test_letters_that_do_not_choose_keep_their_counts():
    # Each word starts with the letters at vertices whose socle part is 0
    # (the only choice is a = 0) and at vertices of dimension 0 (dropped),
    # and its second pass of w0 meets the vertices the first pass emptied.
    # Over GF(3) each partial flag of type a refines to prod [a_j]_3! full
    # flags of the expanded word, which count_flags counts.
    rng = random.Random(34)
    seen = collections.Counter()
    for kind, w0 in (("A3", A3_W0_LETTERS), ("D4", D4_W0_LETTERS)):
        vertices = dynkin_quiver(kind).vertices
        for _ in range(5):
            m = random_module(kind, rng, 4)
            for rep in (m, direct_sum(m, random_module(kind, rng, 3))):
                sealed = tuple(v for v in vertices if rep.dim(v) and not socle_basis_at(rep, v))
                empty = tuple(v for v in vertices if not rep.dim(v))
                seen["sealed"] += bool(sealed)
                seen["empty"] += bool(empty)
                word = sealed + empty + w0 + w0[:len(vertices)]
                try:
                    exact = phi_module._flags(rep, word, False, FlagCounter())
                except phi_module._SocleBranching:
                    pass
                else:
                    assert exact == _reference_flags(rep, word, {}), (kind, rep.dims)
                    seen["QQ"] += 1
                for rep_3 in _good_reductions(rep, (3,)):
                    counts = _reference_flags(rep_3, word, {})
                    assert phi_module._flags(rep_3, word, False, FlagCounter()) == counts, (kind, rep.dims)
                    seen["GF(3)"] += 1
                    for avec, count in list(counts.items())[:8]:
                        expanded = tuple(v for v, a in zip(word, avec) for _ in range(a))
                        weight = math.prod(_q_factorial(a, 3) for a in avec)
                        assert count_flags(rep_3, expanded) == weight * count, (kind, rep.dims, avec)
    assert seen["sealed"] >= 10 and seen["empty"] >= 5 and seen["QQ"] >= 4 and seen["GF(3)"] >= 10, dict(seen)


def test_a_simple_meets_its_vertex_twice_among_empty_ones():
    # S1 of A3 on (2, 1, 3, 1): the letters 2 and 3 are at empty vertices,
    # and S1 is taken at the first 1 or at the second.  A full flag must
    # take a dimension at every letter, so an empty vertex leaves none.
    s1, word = simple_rep(dynkin_quiver("A3"), 1), (2, 1, 3, 1)
    names = ("t1", "t2", "t3", "t4")
    report = phi_eval(s1, word)
    t2, t4 = (LaurentPoly.variable(v, names) for v in ("t2", "t4"))
    assert report.poly == t2 + t4 and report.backend == EXACT
    assert phi_module._flags(s1, word, True, FlagCounter()) == {}


# ----------------------------------------------------------------------
# chi backends


def test_chi_goldens(a2_algebra, d4_algebra):
    ss = direct_sum(simple_rep(A2, 1), simple_rep(A2, 1))
    result = chi(ss, (1, 1))
    assert result.value == 2 and result.backend == INTERPOLATED
    assert result.primes == (2, 3, 5, 7)
    q4 = d4_algebra.injective(4)
    result = chi(q4, (4, 3, 1, 2, 3, 4))
    assert result.value == 1 and result.backend == EXACT
    q1 = a2_algebra.injective(1)
    assert chi(q1, (2, 1)).value == 0


def test_chi_full_flag_variety_is_factorial():
    triple = direct_sum(*[simple_rep(A2, 1)] * 3)
    result = chi(triple, (1, 1, 1))
    assert result.value == 6 and result.backend == INTERPOLATED
    assert result.primes == (2, 3, 5, 7, 11, 13)


def _lagrange_eval(points, x):
    """The value at x of the polynomial through the points, one Fraction
    per point."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        num, den = yi, 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                num *= x - xj
                den *= xi - xj
        total += Fraction(num, den)
    return total


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True), st.data())
def test_lagrange_weights_match_fraction_interpolation(nodes, data):
    values = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=len(nodes), max_size=len(nodes)))
    xs = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=3))
    weights, d = phi_module._lagrange_weights(nodes, xs)
    assert d > 0 and len(weights) == len(xs)
    for x, w in zip(xs, weights):
        assert len(w) == len(nodes)
        assert Fraction(sum(wi * y for wi, y in zip(w, values)), d) == _lagrange_eval(list(zip(nodes, values)), x)


@pytest.mark.parametrize("count, value", [(lambda q: q // 2, "1/2"), (lambda q: -q // 2, "-1/2")])
def test_a_fit_that_is_not_an_integer_at_one_fails(monkeypatch, count, value):
    # Counts q/2 at the even nodes 2, 4, 6, ... fit q/2, which is 1/2 at 1.
    def flags(rep, letters, full, counter):
        if not isinstance(rep, int):
            raise phi_module._SocleBranching("branch")
        return {(1,): count(rep)}

    monkeypatch.setattr(phi_module, "PRIMES", (2, 4, 6, 8, 10))
    monkeypatch.setattr(phi_module, "_reduce_mod_p", lambda rep, p, certificate: p)
    monkeypatch.setattr(phi_module, "_flags", flags)
    with pytest.raises(PhiError, match=f"^interpolated chi {value} is not an integer$"):
        chi(simple_rep(A2, 1), (1,))


def _halves_module():
    """A2's q + q where q has map 1->2 = 1/2: p = 2 is a bad prime."""
    q = QuiverRep(A2, QQ, (1, 1), (((Fraction(1, 2),),), ((Fraction(0),),)))
    return direct_sum(q, q)


def test_interpolation_skips_a_bad_prime():
    result = chi(_halves_module(), (2, 2, 1, 1))
    assert result.value == 4 and result.backend == INTERPOLATED
    assert result.primes == (3, 5, 7, 11, 13)
    with pytest.raises(PhiError):
        count_flags_mod_p(_halves_module(), (2, 2, 1, 1), 2)


def _rescaled(rep, rng):
    """An isomorphic copy of a rational module: basis vector i at each
    vertex u scaled by a random nonzero rational d_u[i], ±1 half of the
    time, so that entry (i, j) of a map from u to w becomes
    m_ij d_u[j] / d_w[i]."""
    q = rep.quiver

    def ratio():
        sign = rng.choice((1, -1))
        return sign * Fraction(rng.randint(1, 12), rng.randint(1, 12)) if rng.random() < 0.5 else sign

    scale = {u: [ratio() for _ in range(rep.dim(u))] for u in q.vertices}
    maps = tuple(
        tuple(tuple(QQ.coerce(x * scale[a.source][j] / scale[a.target][i]) for j, x in enumerate(row))
              for i, row in enumerate(m))
        for a, m in zip(q.arrows, rep.maps)
    )
    return QuiverRep(q, QQ, rep.dims, maps)


def test_a_certified_prime_keeps_the_fingerprint(monkeypatch):
    # `_reduce_mod_p` skips the fingerprint of a reduction when p divides no
    # pivot that the rational fingerprint inverted; each reduction it
    # accepts that way must pass the fingerprint comparison it skipped.
    rng = random.Random(36)
    calls = _counting(monkeypatch, "fingerprint", lambda rep: rep.field.name)
    outcomes = collections.Counter()
    for kind in ("A3", "A4", "D4", "D5"):
        for _ in range(50):
            m = _rescaled(random_module(kind, rng, 6), rng)
            certificate = phi_module._certificate(m)
            assert certificate[0] == fingerprint(m)
            for p in (2, 3, 5, 7, 11, 13, 17):
                before = sum(calls.values())
                reduced = phi_module._reduce_mod_p(m, p, certificate)
                compared = sum(calls.values()) > before
                if reduced is None:
                    outcomes["bad by fingerprint" if compared else "bad by denominator"] += 1
                elif compared:
                    outcomes["good by fingerprint"] += 1
                else:
                    assert fingerprint(reduced) == certificate[0], (kind, m.maps, p)
                    outcomes["certified"] += 1
    # 1,400 decisions: 879 certified, 3 good by fingerprint, 120 bad by
    # fingerprint and 398 bad by denominator.
    assert outcomes["certified"] > 700, dict(outcomes)
    assert outcomes["bad by fingerprint"] > 50 and outcomes["bad by denominator"] > 50, dict(outcomes)


# An A4 module of dims (2, 3, 3, 2), valid over QQ, whose map 2->3 drops
# from rank 2 to 1 mod 2 with the socle and radical layers unchanged: p = 2
# passes as good, one coefficient counts 1 there and 0 at every other prime,
# so no fit is ever confirmed.
A4_BAD_PRIME_MODULE = {
    "type": "A4",
    "dims": {"1": 2, "2": 3, "3": 3, "4": 2},
    "maps": {
        "1->2": [[0, 0], [2, 1], [0, 0]],
        "2->1": [[1, 0, 0], [0, 0, 1]],
        "2->3": [[2, 0, 0], [0, 0, 0], [0, 0, 1]],
        "3->2": [[0, 0, 0], [1, 0, 1], [0, 1, 0]],
        "3->4": [[0, 0, 0], [0, 1, 0]],
        "4->3": [[-1, 0], [0, 0], [0, 1]],
    },
}


def test_a_bad_prime_the_fingerprint_misses_leaves_chi_undetermined():
    rep = QuiverRep.from_json(A4_BAD_PRIME_MODULE)
    points = [(2, 1)] + [(p, 0) for p in phi_module.PRIMES[1:]]
    with pytest.raises(phi_module.ChiUndeterminedError,
                       match=re.escape(f"point counts {points} never stabilized")):
        phi_eval(rep, (1, 2, 3, 4, 1, 2, 3, 1, 2, 1))


def test_a_bad_prime_keeps_no_counter_alive():
    m = _halves_module()
    counter = FlagCounter()
    chi(m, (2, 2, 1, 1), counter=counter)
    ref = weakref.ref(counter)
    del counter
    gc.collect()
    assert ref() is None


def test_count_flags_over_qq_rejects_a_branching_socle():
    ss = direct_sum(simple_rep(A2, 1), simple_rep(A2, 1))
    with pytest.raises(PhiError):
        count_flags(ss, (1, 1))


def test_chi_results_do_not_depend_on_memo_sharing(monkeypatch, d4_algebra):
    q3 = d4_algebra.injective(3)
    word = (3, 1, 2, 4, 3, 3, 1, 2, 4, 3)
    fresh = chi(q3, word, counter=FlagCounter())
    shared = chi(q3, word)
    # Q4 + Q4 interpolates from GF(p) counts; a cap reached part of the way
    # leaves expansions stored whose later choices are never kept.
    doubled = direct_sum(d4_algebra.injective(4), d4_algebra.injective(4))
    report = phi_eval(doubled, D4_W0_LETTERS)
    assert report.backend == INTERPOLATED
    for cap in (0, 7, 60, 400):
        monkeypatch.setattr(phi_module, "MEMO_MAX_ENTRIES", cap)
        capped = chi(q3, word, counter=FlagCounter())
        assert fresh.value == shared.value == capped.value
        assert phi_eval(doubled, D4_W0_LETTERS, counter=FlagCounter()) == report


# ----------------------------------------------------------------------
# phi evaluation


def test_phi_example_values_a2(a2_algebra):
    word = (1, 2, 1)
    names = ("t1", "t2", "t3")
    t1, t2, t3 = (LaurentPoly.variable(v, names) for v in names)
    assert phi_eval(simple_rep(A2, 1), word).poly == t1 + t3
    assert phi_eval(simple_rep(A2, 2), word).poly == t2
    assert phi_eval(a2_algebra.injective(1), word).poly == t1 * t2
    assert phi_eval(a2_algebra.injective(2), word).poly == t2 * t3


def test_phi_of_zero_module_is_one():
    report = phi_eval(zero_rep(D4), D4_W0_LETTERS)
    assert report.poly.is_one and report.backend == EXACT


def test_phi_of_a_word_missing_a_support_vertex_is_exact_zero():
    report = phi_eval(simple_rep(A2, 1), (2,))
    assert report.poly.is_zero and report.backend == EXACT
    assert report.primes == () and report.table.entries == {}
    # Past the check at entry, (1, 1) would meet a line in the 2-dimensional
    # socle part at vertex 1 and count points over GF(p).
    m = direct_sum(simple_rep(A2, 1), simple_rep(A2, 1), simple_rep(A2, 2))
    report = phi_eval(m, (1, 1))
    assert report.poly.is_zero and report.backend == EXACT and report.primes == ()


def test_phi_q4_is_top_corner_entry(d4_algebra, d4_product):
    report = phi_eval(d4_algebra.injective(4), D4_W0_LETTERS)
    assert report.poly == d4_product.entry(1, 8)
    assert report.backend == EXACT


def test_phi_all_q4_submodules_match_first_row(q4_submodule_list, d4_product):
    values = [phi_eval(s, D4_W0_LETTERS).poly for s in q4_submodule_list]
    row = [d4_product.entry(1, j) for j in range(1, 9)]
    assert values == row


def test_phi_weight_grading():
    rng = random.Random(9)
    for _ in range(8):
        m = random_module("A3", rng, 5)
        report = phi_eval(m, A3_W0_LETTERS)
        for exps, _coeff in report.poly.sorted_terms():
            per_vertex = {v: 0 for v in (1, 2, 3)}
            for letter, e in zip(A3_W0_LETTERS, exps):
                per_vertex[letter] += e
            assert per_vertex == {v: m.dim(v) for v in (1, 2, 3)}


def test_phi_rejects_bad_letters(a2_algebra):
    with pytest.raises(PhiError):
        phi_eval(a2_algebra.injective(1), (1, 7))
    for count in (chi, count_flags):
        with pytest.raises(PhiError, match="9 is not a vertex"):
            count(simple_rep(A2, 1), (1, 9))
    with pytest.raises(PhiError):
        phi_eval(a2_algebra.injective(1), (1, 2), params=("t1",))
    with pytest.raises(PhiError, match="over the rationals"):
        phi_eval(simple_rep(A2, 1, PrimeField(3)), (1,))


def test_chi_table_provenance(d4_algebra):
    # t1^2 + 2 t1 t2 + t2^2: taking the whole socle part at once, a line
    # of it (the projective line, chi 2), or nothing.  The line is a
    # Grassmannian branch, so every coefficient comes from the primes.
    report = phi_eval(direct_sum(simple_rep(D4, 4), simple_rep(D4, 4)), (4, 4))
    assert report.backend == INTERPOLATED
    entries = report.table.entries
    assert {a: r.value for a, r in entries.items()} == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    for r in entries.values():
        assert r.backend == INTERPOLATED
        assert list(r.primes[:2]) == [2, 3]
    assert list(report.primes[:2]) == [2, 3]


def test_whole_socle_part_is_one_exact_choice():
    # One letter takes all of S1 + S1: a single point, no primes needed.
    report = phi_eval(direct_sum(simple_rep(A2, 1), simple_rep(A2, 1)), (1,))
    assert report.poly == LaurentPoly.monomial(("t1",), (2,), 1)
    assert report.backend == EXACT and report.primes == ()
    assert report.table.entries == {(2,): ChiResult(1, EXACT)}


def _multiplicity_vectors(rep, letters):
    """Every a whose per-vertex letter sums equal the dimension vector."""
    ranges = [range(rep.dim(v) + 1) for v in letters]
    for avec in itertools.product(*ranges):
        sums = {v: 0 for v in rep.quiver.vertices}
        for v, a in zip(letters, avec):
            sums[v] += a
        if all(sums[v] == rep.dim(v) for v in sums):
            yield avec


def test_full_flags_are_a_factorial_times_partial_flags():
    # chi(full flags of the expanded word) = a! chi(partial flags): lines
    # enumerated one at a time against Gr(a, s) enumerated at once.  Direct
    # sums give socle parts of dimension 2 and more, on both backends.
    rng = random.Random(11)
    for _ in range(5):
        m = direct_sum(random_module("A3", rng, 4), random_module("A3", rng, 4))
        coeffs = phi_eval(m, A3_W0_LETTERS).poly.terms
        for avec in _multiplicity_vectors(m, A3_W0_LETTERS):
            expanded = tuple(v for v, a in zip(A3_W0_LETTERS, avec) for _ in range(a))
            weight = math.prod(math.factorial(a) for a in avec)
            assert chi(m, expanded).value == weight * coeffs.get(avec, 0), (m.dims, avec)


D5_W0_LETTERS = (1, 2, 3, 4, 5) * 4
D6_W0_LETTERS = (1, 2, 3, 4, 5, 6) * 5


@pytest.mark.parametrize("kind, letters, vertex, rows, cols", [
    ("D5", D5_W0_LETTERS, 4, (1, 2), (9, 10)),
    ("D5", D5_W0_LETTERS, 3, (1, 2, 3), (8, 9, 10)),
    ("D6", D6_W0_LETTERS, 5, (1, 2), (11, 12)),
    ("D6", D6_W0_LETTERS, 4, (1, 2, 3), (10, 11, 12)),
], ids=["D5-Q4", "D5-Q3", "D6-Q5", "D6-Q4"])
def test_injectives_are_minors(kind, letters, vertex, rows, cols):
    x = product(kind, Word.with_default_params(letters))
    q = build_algebra_basis(kind).injective(vertex)
    report = phi_eval(q, letters)
    assert report.backend == INTERPOLATED
    assert report.poly == minor(x, rows, cols)


# ----------------------------------------------------------------------
# multiplicative identities


def test_multiplication_unit():
    rng = random.Random(10)
    for _ in range(5):
        m = random_module("A3", rng, 4)
        report = verify_multiplication(m, zero_rep(dynkin_quiver("A3")), A3_W0_LETTERS)
        assert report["product_rule"]["holds"]


def test_a2_exchange_identity(a2_algebra):
    report = verify_multiplication(
        simple_rep(A2, 1),
        simple_rep(A2, 2),
        (1, 2, 1),
        middle_terms=(a2_algebra.injective(1), a2_algebra.injective(2)),
    )
    assert report["product_rule"]["holds"]
    assert report["exchange_rule"]["holds"] and report["exchange_rule"]["ext1"] == 1


def test_a3_plucker_identity(a3_algebra):
    quiver = dynkin_quiver("A3")
    m = simple_rep(quiver, 2)
    q2 = a3_algebra.injective(2)
    n = functor_E(q2, 2)
    y = functor_E(n, 3)
    z = functor_E(n, 1)
    report = verify_multiplication(m, n, A3_W0_LETTERS, middle_terms=(q2, direct_sum(y, z)))
    assert report["product_rule"]["holds"]
    assert report["exchange_rule"]["holds"]


def test_submodules_of_every_a3_injective_match_minors(a3_algebra):
    # each submodule of Q_k gives a k x k minor on rows 1..k, distinct
    # submodules give distinct minors, and every such nonzero minor is hit
    from clusterforge.nmatrix import Word, minor, product
    import itertools

    quiver = dynkin_quiver("A3")
    x = product("A3", Word.with_default_params(A3_W0_LETTERS))

    def submodule_chain(vertex, removals):
        mods = [a3_algebra.injective(vertex)]
        for i in removals:
            mods.append(functor_E(mods[-1], i))
        mods.append(zero_rep(quiver))
        return mods

    cases = {
        1: submodule_chain(1, (3, 2)),
        3: submodule_chain(3, (1, 2)),
    }
    q2 = a3_algebra.injective(2)
    n = functor_E(q2, 2)
    cases[2] = [q2, n, functor_E(n, 3), functor_E(n, 1), simple_rep(quiver, 2),
                zero_rep(quiver)]
    for k, submodules in cases.items():
        rows = tuple(range(1, k + 1))
        minors = {
            cols: minor(x, rows, cols)
            for cols in itertools.combinations(range(1, 5), k)
        }
        nonzero = {c: v for c, v in minors.items() if not v.is_zero}
        assert len(nonzero) == len(submodules)
        hits = []
        for rep in submodules:
            value = phi_eval(rep, A3_W0_LETTERS).poly
            matches = [c for c, mv in nonzero.items() if mv == value]
            assert len(matches) == 1
            hits.append(matches[0])
        assert len(set(hits)) == len(submodules)


def test_uniserial_modules_are_matrix_entries(a3_algebra):
    # the uniserial module with socle at i and top at j evaluates to the
    # matrix entry in row i, column j+1
    from clusterforge.nmatrix import Word, product

    x = product("A3", Word.with_default_params(A3_W0_LETTERS))
    quiver = dynkin_quiver("A3")
    q1, q2 = a3_algebra.injective(1), a3_algebra.injective(2)
    uniserial = {
        (1, 1): simple_rep(quiver, 1),
        (2, 2): simple_rep(quiver, 2),
        (3, 3): simple_rep(quiver, 3),
        (1, 2): functor_E(q1, 3),
        (2, 3): functor_E(functor_E(q2, 2), 1),
        (1, 3): q1,
    }
    for (i, j), rep in uniserial.items():
        assert phi_eval(rep, A3_W0_LETTERS).poly == x.entry(i, j + 1), (i, j)


def test_failed_identity_reports_witness(a2_algebra):
    report = verify_multiplication(
        simple_rep(A2, 1),
        simple_rep(A2, 2),
        (1, 2, 1),
        middle_terms=(a2_algebra.injective(1), a2_algebra.injective(1)),
    )
    assert not report["exchange_rule"]["holds"]
    assert report["exchange_rule"]["witness"] is not None


# ----------------------------------------------------------------------
# positivity


def _values_at(summands, letters, point):
    values = []
    for rep in summands:
        poly = phi_eval(rep, letters).poly
        values.append(poly.evaluate(dict(zip(poly.varnames, point))))
    return values


def test_positivity_at_all_ones(d4_rigid):
    # at t = 1 each phi value counts the monomials of the matching minor:
    # n_12, n_13, n_14, the 2x2 minor 7*3 - 1, n_15, n_18
    values = _values_at(d4_rigid["ordered"], D4_W0_LETTERS, [Fraction(1)] * 12)
    assert values == [Fraction(c) for c in (3, 6, 4, 20, 4, 1)]
    assert all(v > 0 for v in values)


def test_positivity_rejects_nonpositive_points():
    runner = CliRunner()
    for point, message in ((",".join(["0"] + ["1"] * 11),
                            "positivity check requires strictly positive coordinates"),
                           (",".join(["1"] * 11), "point must supply one value per word letter")):
        result = runner.invoke(main, ["phi", "positivity", "--rigid", "d4-example",
                                      "--point", point])
        assert result.exit_code == 2
        assert message in result.stderr


def test_positivity_single_simple():
    assert _values_at([simple_rep(A2, 1)], (1,), [Fraction(1, 2)]) == [Fraction(1, 2)]


# ----------------------------------------------------------------------
# memo arena and report plumbing


def test_capped_counter_stops_memoizing(monkeypatch, a2_algebra):
    monkeypatch.setattr(phi_module, "MEMO_MAX_ENTRIES", 0)
    counter = FlagCounter()
    q1 = a2_algebra.injective(1)
    assert count_flags(q1, (1, 2), counter) == 1
    assert counter.entry_count == 0


def test_modules_carry_no_cached_state():
    """The call's FlagCounter is the only memo: no call leaves a
    fingerprint or a reduction mod p on the modules it reads."""
    ss = direct_sum(simple_rep(A2, 1), simple_rep(A2, 1))
    split = direct_sum(simple_rep(A2, 1), simple_rep(A2, 2))
    uniserial = QuiverRep(A2, QQ, (1, 1), (((1,),), ((0,),)))
    assert phi_eval(ss, (1, 1)).backend == INTERPOLATED
    assert chi(ss, (1, 1)) == ChiResult(2, INTERPOLATED, (2, 3, 5, 7))
    assert count_flags_mod_p(ss, (1, 1), 5) == 6
    assert not is_isomorphic(split, uniserial)
    assert fingerprint(ss) == ((2, 0), ((2, 0),), ((2, 0),))
    for rep in (ss, split, uniserial):
        assert set(vars(rep)) == {"quiver", "field", "dims", "maps"}


def _rebased(rep, rng):
    """An isomorphic copy of rep: each vertex basis permuted and re-signed."""
    order, signs = {}, {}
    for v in rep.quiver.vertices:
        order[v] = rng.sample(range(rep.dim(v)), rep.dim(v))
        signs[v] = [rng.choice((1, -1)) for _ in order[v]]
    maps = tuple(
        tuple(
            tuple(signs[a.target][i] * signs[a.source][j] * m[order[a.target][i]][order[a.source][j]]
                  for j in range(len(order[a.source])))
            for i in range(len(order[a.target]))
        )
        for a, m in zip(rep.quiver.arrows, rep.maps)
    )
    return QuiverRep(rep.quiver, rep.field, rep.dims, maps)


def test_rebased_q4_keeps_its_phi(d4_algebra, d4_product):
    q4 = d4_algebra.injective(4)
    copy = _rebased(q4, random.Random(5))
    assert copy.maps != q4.maps
    report = phi_eval(copy, D4_W0_LETTERS)
    assert report.poly == d4_product.entry(1, 8)
    assert report.backend == EXACT


def test_calls_without_counter_share_no_memo(d4_algebra, monkeypatch):
    made = []

    class RecordingCounter(FlagCounter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(phi_module, "FlagCounter", RecordingCounter)
    q4 = d4_algebra.injective(4)
    first = phi_eval(q4, D4_W0_LETTERS)
    second = phi_eval(q4, D4_W0_LETTERS)
    assert first.poly == second.poly
    assert len(made) == 2
    assert made[0].entry_count == made[1].entry_count > 0
    assert not [v for v in vars(phi_module).values() if isinstance(v, FlagCounter)]


def test_counting_over_a_large_prime(a2_algebra):
    # Q1 + Q1 over A2: a line in the 2-dimensional socle, then the line left
    # at vertex 1, then a line in the 2-dimensional top: (p + 1)^2 chains.
    m = direct_sum(a2_algebra.injective(1), a2_algebra.injective(1))
    for p in (3, 257, 263):
        counter = FlagCounter()
        assert count_flags_mod_p(m, (1, 1, 2, 2), p, counter) == (p + 1) ** 2
        assert counter.entry_count > 0


def test_a_shared_counter_keeps_full_and_partial_flags_apart():
    # The same quotient and letters are one state for count_flags and
    # another for phi_eval: the full count {(1, 1): p + 1} must not stand
    # in for the partial counts.
    ss = direct_sum(simple_rep(A2, 1), simple_rep(A2, 1))
    counter = FlagCounter()
    assert count_flags_mod_p(ss, (1, 1), 3, counter) == 3 + 1
    t1, t2 = (LaurentPoly.variable(v, ("t1", "t2")) for v in ("t1", "t2"))
    assert phi_eval(ss, (1, 1), counter=counter).poly == t1 * t1 + 2 * t1 * t2 + t2 * t2


def test_memo_keys_tell_reciprocals_apart():
    def rep(x, field=QQ):
        return QuiverRep(A2, field, (1, 1), (((x,),), ((0,),)))

    half, two = rep(Fraction(1, 2)), rep(2)
    counter = FlagCounter()
    counter.store(half, (1, 2), 5)
    assert counter.lookup(half, (1, 2)) == 5
    assert counter.lookup(two, (1, 2)) is None
    assert counter.lookup(rep(Fraction(2, 4)), (1, 2)) == 5
    # A module is its own key: an int entry and the equal Fraction share,
    # equal entries over different fields do not, and PrimeField compares by p.
    counter.store(rep(1), (1, 2), 7)
    assert counter.lookup(rep(Fraction(1)), (1, 2)) == 7
    assert counter.lookup(rep(1, PrimeField(3)), (1, 2)) is None
    counter.store(rep(1, PrimeField(3)), (1, 2), 8)
    assert counter.lookup(rep(1, PrimeField(3)), (1, 2)) == 8
    assert counter.lookup(rep(1), (1, 2)) == 7


def test_phi_report_json(a2_algebra):
    report = phi_eval(a2_algebra.injective(1), (1, 2, 1))
    blob = report.to_json()
    assert set(blob) == {"polynomial", "backend", "primes_used"}
    assert blob["backend"] == EXACT and blob["primes_used"] == []
    assert LaurentPoly.from_json(blob["polynomial"]) == report.poly
