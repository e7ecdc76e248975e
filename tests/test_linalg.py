"""Field elements stay exact and canonical through linalg and prepmod.

Over QQ an entry is an int or a Fraction, never a float; over GF(p) it is
an int in range(p), which every routine guarantees by passing each row it
computes through `field.reduce`.
"""

import random
from fractions import Fraction

import pytest

from clusterforge.cases import d4_nonrigid_module
from clusterforge.fields import QQ, PrimeField
from clusterforge.linalg import coordinates, mat_mul, mat_vec, nullspace, rref
from clusterforge.phi import _reduce_mod_p, count_flags_mod_p
from clusterforge.prepmod import (
    QuiverRep,
    build_algebra_basis,
    direct_sum,
    dual,
    dynkin_quiver,
    fingerprint,
    functor_E,
    functor_E_dagger,
    hom_basis,
    quotient_rep,
    radical_basis_at,
    random_module,
    simple_rep,
    socle_basis_at,
    sub_rep,
)

A2 = dynkin_quiver("A2")


def entries(obj):
    """Every scalar inside nested tuples and lists."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from entries(item)
    else:
        yield obj


def test_fields_keep_only_coerce_inv_and_reduce():
    gf = PrimeField(7)
    assert QQ.inv(2) == Fraction(1, 2) and isinstance(QQ.inv(2), Fraction)
    assert gf.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        gf.inv(7)
    assert gf.reduce([-1, 7, 15]) == [6, 0, 1]
    reduced = QQ.reduce([Fraction(4, 2), Fraction(-1, 2), 3])
    assert reduced == [2, Fraction(-1, 2), 3] and type(reduced[0]) is int
    assert type(QQ.coerce(3)) is int and type(QQ.coerce(Fraction(6, 3))) is int
    assert QQ.coerce(Fraction(6, 3)) == 2
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert gf.coerce(Fraction(1, 2)) == 4
    for name in ("zero", "one", "add", "sub", "mul", "neg", "is_zero"):
        assert not hasattr(QQ, name) and not hasattr(gf, name)


def qq_canonical(obj) -> bool:
    """Every entry is an int, or a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in entries(obj))


def test_qq_arithmetic_stays_exact_on_int_input():
    red, pivots = rref(QQ, ((2, 4), (1, 3)))
    assert red == ((1, 0), (0, 1)) and pivots == [0, 1]
    assert qq_canonical(red)

    rep = QuiverRep(A2, QQ, (2, 1), (((1, 2),), ((0,), (0,))))
    socle = socle_basis_at(rep, 1)
    assert socle == [(-2, 1)]
    assert qq_canonical(socle)

    top = quotient_rep(rep, {v: socle_basis_at(rep, v) for v in A2.vertices})
    assert qq_canonical(top.maps)
    blob = top.to_json()
    assert all(str(Fraction(x)) == x for m in blob["maps"].values() for x in entries(m))


def halved(vectors):
    """The vectors divided by 2, as canonical QQ elements."""
    return [tuple(QQ.reduce([Fraction(x, 2) for x in u])) for u in vectors]


@pytest.mark.parametrize("kind", ["A3", "A4", "D4", "D5"])
def test_qq_modules_hold_no_integral_fraction(kind):
    """The injectives, random submodules of their sums, the hand-built D4
    family, and every dual, functor_E, functor_E_dagger, quotient_rep and
    sub_rep of them hold ints and non-integral Fractions only.  The spans
    are also passed halved, so that rref and coordinates divide by pivots
    other than 1 and -1."""
    alg = build_algebra_basis(kind)
    q = alg.quiver
    reps = [alg.injective(v) for v in q.vertices]
    if kind != "D5":
        rng = random.Random(kind)
        reps += [random_module(kind, rng, 8) for _ in range(4)]
    if kind == "D4":
        reps.append(d4_nonrigid_module(Fraction(2), 1))
    for rep in reps:
        assert qq_canonical(rep.maps) and qq_canonical(dual(rep).maps)
        for v in q.vertices:
            assert qq_canonical(functor_E(rep, v).maps)
            assert qq_canonical(functor_E_dagger(rep, v).maps)
            socle, radical = socle_basis_at(rep, v), radical_basis_at(rep, v)
            assert qq_canonical(socle) and qq_canonical(radical)
            if socle:
                assert qq_canonical(quotient_rep(rep, {v: halved(socle)}).maps)
            assert qq_canonical(sub_rep(rep, {v: halved(radical)}).maps)


def test_qq_linalg_returns_canonical_entries_on_int_input():
    rng = random.Random(11)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(ncols)) for _ in range(nrows))
        red, _ = rref(QQ, a)
        assert qq_canonical(red)
        assert qq_canonical(nullspace(QQ, a, ncols))
        basis = [tuple(3 * x for x in row) for row in red if any(row)]
        coords = coordinates(QQ, basis, a)
        assert coords is not None and qq_canonical(coords)


def test_module_json_reads_canonical_entries():
    blob = {"type": "A4", "dims": {"1": 1, "2": 1, "3": 1, "4": 1},
            "maps": {"1->2": [["4/2"]], "2->3": [["-3"]], "3->4": [["1/2"]]}}
    rep = QuiverRep.from_json(blob)
    read = [rep.map_of(a)[0][0] for a in rep.quiver.arrows if a.source < a.target]
    assert read == [2, -3, Fraction(1, 2)]
    assert [type(x) for x in read] == [int, int, Fraction]
    assert qq_canonical(rep.maps)
    written = rep.to_json()
    assert [written["maps"][name] for name in ("1->2", "2->3", "3->4")] == [
        [["2"]], [["-3"]], [["1/2"]]]
    assert QuiverRep.from_json(written) == rep
    assert QuiverRep.from_json(written).to_json() == written


def canonical(obj, p) -> bool:
    return all(type(x) is int and 0 <= x < p for x in entries(obj))


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_gfp_results_are_canonical_residues(p):
    gf = PrimeField(p)
    rng = random.Random(p)
    # three of each type; a module for which p is a bad prime is skipped
    reps = []
    for kind in ("A3", "D4"):
        kept = []
        while len(kept) < 3:
            rep = random_module(kind, rng, 6)
            rep_p = _reduce_mod_p(rep, p, fingerprint(rep))
            if rep_p is not None:
                kept.append(rep_p)
        reps += kept
    for rep in reps:
        q = rep.quiver
        assert rep.field == gf and canonical(rep.maps, p)
        for a, m in zip(q.arrows, rep.maps):
            red, pivots = rref(gf, m)
            assert canonical(red, p)
            assert canonical(nullspace(gf, m, rep.dim(a.source)), p)
            rows = [row for row in red if any(row)]
            coords = coordinates(gf, rows, m)
            assert coords is not None and canonical(coords, p)
            for b in q.arrows_from(a.target):
                assert canonical(mat_mul(gf, rep.map_of(b), m), p)
            for u in nullspace(gf, (), rep.dim(a.source)):
                # -u has entries p - 1: mat_vec must reduce what it sums
                assert canonical(mat_vec(gf, m, gf.reduce([-x for x in u])), p)
        for v in q.vertices:
            socle = socle_basis_at(rep, v)
            assert canonical(socle, p)
            if socle:
                assert canonical(quotient_rep(rep, {v: socle}).maps, p)
                # a line of the socle part is a submodule; a random one is
                # not spanned by coordinate vectors, so its quotient subtracts
                coeffs = [rng.randrange(1, p) for _ in socle]
                line = gf.reduce([sum(c * u[i] for c, u in zip(coeffs, socle))
                                  for i in range(rep.dim(v))])
                if any(line):
                    assert canonical(quotient_rep(rep, {v: [line]}).maps, p)
            assert canonical(sub_rep(rep, {v: radical_basis_at(rep, v)}).maps, p)
        assert canonical(hom_basis(rep, rep), p)


def test_count_flags_mod_large_prime():
    rep = direct_sum(simple_rep(A2, 1), simple_rep(A2, 1))
    assert count_flags_mod_p(rep, (1, 1), p=257) == 258
