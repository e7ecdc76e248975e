import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from clusterforge import linalg, prepmod
from clusterforge.cases import d4_nonrigid_module
from clusterforge.fields import QQ, PrimeField
from clusterforge.linalg import mat_mul, mat_vec, rank, rref
from clusterforge.prepmod import (
    D4_RIGID_WORD,
    PrepmodError,
    QuiverRep,
    build_algebra_basis,
    build_complete_rigid,
    cartan_pairing,
    check_relation,
    direct_sum,
    dual,
    dynkin_quiver,
    exchange_matrix_from_sequences,
    ext1_dim,
    fingerprint,
    first_unreduced_position,
    functor_E,
    functor_E_dagger,
    functor_E_word,
    hom_dim,
    is_isomorphic,
    is_nilpotent,
    is_rigid,
    positive_root_count,
    radical_series,
    random_module,
    simple_rep,
    socle_basis_at,
    socle_series,
    socle_top,
    span_sub_rep,
    sub_rep,
    zero_rep,
)
from wordtools import weyl_length

D4 = dynkin_quiver("D4")
A2 = dynkin_quiver("A2")
A3 = dynkin_quiver("A3")


# ----------------------------------------------------------------------
# algebra basis and injectives


COXETER_NUMBERS = {
    **{f"A{n}": n + 1 for n in range(1, 9)},
    **{f"D{n}": 2 * n - 2 for n in range(4, 9)},
    "E6": 12, "E7": 18, "E8": 30,
}


@pytest.mark.parametrize("kind", COXETER_NUMBERS)
def test_algebra_dimensions(kind):
    """dim Lambda = r h (h + 1) / 6 and the Loewy length is h - 1, for rank r
    and Coxeter number h."""
    algebra = build_algebra_basis(kind)
    rank, h = len(algebra.quiver.vertices), COXETER_NUMBERS[kind]
    assert algebra.dimension == rank * h * (h + 1) // 6
    assert algebra.loewy_length == h - 1


@pytest.mark.parametrize("kind", COXETER_NUMBERS)
def test_arrow_positions_pair_each_arrow_with_its_reverse(kind):
    arrows = dynkin_quiver(kind).arrows
    for k, a in enumerate(arrows):
        assert a.index == k
        assert arrows[k ^ 1] == prepmod.Arrow(f"{a.target}->{a.source}", a.target, a.source, k ^ 1)


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6"])
def test_dual_is_an_involution_on_injectives(kind):
    algebra = build_algebra_basis(kind)
    for i in algebra.quiver.vertices:
        q = algebra.injective(i)
        assert dual(dual(q)) == q


def test_a1_algebra_is_trivial():
    alg = build_algebra_basis("A1")
    assert alg.dimension == 1
    q1 = alg.injective(1)
    assert q1.dims == (1,)
    assert socle_top(q1) == {"top": (1,), "socle": (1,)}


def test_d4_q4_filtration(d4_algebra):
    q4 = d4_algebra.injective(4)
    assert q4.dims == (1, 1, 2, 2)
    assert socle_series(q4) == (
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (1, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_d4_q3_filtration(d4_algebra):
    q3 = d4_algebra.injective(3)
    assert q3.dims == (2, 2, 4, 2)
    assert socle_series(q3) == (
        (0, 0, 1, 0),
        (1, 1, 0, 1),
        (0, 0, 2, 0),
        (1, 1, 0, 1),
        (0, 0, 1, 0),
    )


def test_d4_diagram_automorphism_on_injectives(d4_algebra):
    # 1 -> 2 -> 4 -> 1 permutes the external injectives' dimension vectors
    dims = {i: d4_algebra.injective(i).dims for i in (1, 2, 4)}
    assert dims[1] == (2, 1, 2, 1)
    assert dims[2] == (1, 2, 2, 1)
    assert dims[4] == (1, 1, 2, 2)
    assert sorted(sum(d) for d in dims.values()) == [6, 6, 6]


def test_injectives_satisfy_relation_and_nilpotency(d4_algebra, a3_algebra):
    for alg, verts in ((d4_algebra, (1, 2, 3, 4)), (a3_algebra, (1, 2, 3))):
        for i in verts:
            q = alg.injective(i)
            assert check_relation(q) == (True, None)
            assert is_nilpotent(q)


def test_injectives_have_simple_socle(d4_algebra):
    for i in (1, 2, 3, 4):
        soc = socle_top(d4_algebra.injective(i))["socle"]
        assert sum(soc) == 1 and soc[D4.vertex_index[i]] == 1


# ----------------------------------------------------------------------
# relation checking


def test_simple_reps_satisfy_relation():
    for v in (1, 2, 3, 4):
        assert check_relation(simple_rep(D4, v)) == (True, None)


def test_identity_maps_violate_relation():
    one = ((Fraction(1),),)
    rep = QuiverRep(A2, QQ, (1, 1), (one, one))
    ok, witness = check_relation(rep)
    assert not ok and witness in (1, 2)


def test_relation_violation_next_to_a_zero_dimensional_vertex():
    # dims (1, 2, 0): (1->2)(2->1) != 0 at vertex 2, beside the empty vertex 3
    maps = {"1->2": ((Fraction(1),), (Fraction(0),)), "2->1": ((Fraction(0), Fraction(1)),),
            "2->3": (), "3->2": ((), ())}
    rep = QuiverRep(A3, QQ, (1, 2, 0), tuple(maps[a.name] for a in A3.arrows))
    assert check_relation(rep) == (False, 2)
    with pytest.raises(PrepmodError, match="relation at vertex 2"):
        QuiverRep.from_json(rep.to_json())


# ----------------------------------------------------------------------
# socle / top / functors


def test_socle_top_of_simple():
    s = simple_rep(D4, 2)
    assert socle_top(s) == {"top": (0, 1, 0, 0), "socle": (0, 1, 0, 0)}


def test_socle_top_of_q4(d4_algebra):
    result = socle_top(d4_algebra.injective(4))
    assert result == {"top": (0, 0, 0, 1), "socle": (0, 0, 0, 1)}


def test_m5_socle_has_multiplicity_two(d4_rigid):
    m5 = d4_rigid["by_label"]["M5"]
    assert socle_top(m5)["socle"] == (0, 0, 0, 2)


def test_functor_E_on_simple_is_zero():
    assert functor_E(simple_rep(D4, 1), 1).is_zero
    assert functor_E_dagger(simple_rep(D4, 1), 1).is_zero


def test_functor_E_of_q4_is_sixth_submodule(d4_algebra):
    kernel = functor_E(d4_algebra.injective(4), 4)
    assert kernel.dims == (1, 1, 2, 1)
    assert socle_series(kernel) == (
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (1, 1, 0, 0),
        (0, 0, 1, 0),
    )
    assert check_relation(kernel) == (True, None)


def test_functor_word_order_reproduces_m4(d4_algebra):
    # M4 applies the socle-removal functor along the prefix (1,3,1,2), the
    # last letter acting first
    m4 = functor_E_word(d4_algebra.injective(2), (1, 3, 1, 2), dagger=True)
    assert m4.dims == (0, 1, 1, 1)
    assert socle_series(m4) == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))


def test_parabolic_socle_functor_fixes_sub_q4(d4_rigid):
    # the w_0^K prefix acts trivially on modules cogenerated by Q_4
    prefix = D4_RIGID_WORD[:6]
    for label in ("M4", "M5", "M6", "M7", "M8", "Q4"):
        m = d4_rigid["by_label"][label]
        image = functor_E_word(m, prefix, dagger=True)
        assert image.dims == m.dims and image.maps == m.maps


def test_functor_E_dimension_drop():
    rng = random.Random(3)
    for _ in range(10):
        m = random_module("D4", rng, 8)
        report = socle_top(m)
        for v in (1, 2, 3, 4):
            image = functor_E(m, v)
            expected = list(m.dims)
            expected[D4.vertex_index[v]] -= report["top"][D4.vertex_index[v]]
            assert list(image.dims) == expected
            assert check_relation(image) == (True, None)
            quotient = functor_E_dagger(m, v)
            expected = list(m.dims)
            expected[D4.vertex_index[v]] -= report["socle"][D4.vertex_index[v]]
            assert list(quotient.dims) == expected
            assert check_relation(quotient) == (True, None)


def test_braid_relation_instances():
    rng = random.Random(4)
    for _ in range(5):
        m = random_module("D4", rng, 7)
        a = functor_E(functor_E(functor_E(m, 1), 3), 1)
        b = functor_E(functor_E(functor_E(m, 3), 1), 3)
        assert is_isomorphic(a, b)
        c = functor_E(functor_E(m, 1), 2)
        d = functor_E(functor_E(m, 2), 1)
        assert is_isomorphic(c, d)


# ----------------------------------------------------------------------
# the radical side as the socle side of the dual


def radical_layers_oracle(rep):
    """Radical layers from spans of images, top first: rad^0 M_w = M_w and
    rad^k M_w = sum over arrows a: v -> w of M_a(rad^(k-1) M_v).  Stops
    when the radical vanishes or after total_dim + 1 layers."""
    q, F = rep.quiver, rep.field
    span = {v: [tuple(int(r == c) for c in range(rep.dim(v))) for r in range(rep.dim(v))]
            for v in q.vertices}
    layers = []
    for _ in range(rep.total_dim + 1):
        if not any(span.values()):
            break
        nxt = {}
        for w in q.vertices:
            images = [mat_vec(F, rep.map_of(a), u) for a in q.arrows_into[w] for u in span[a.source]]
            red, pivots = rref(F, tuple(images))
            nxt[w] = red[:len(pivots)]
        layers.append(tuple(len(span[v]) - len(nxt[v]) for v in q.vertices))
        span = nxt
    return tuple(layers)


def nilpotency_oracle(rep):
    """The n x n block matrix of all arrow maps, raised to a power >= n by
    repeated squaring, is zero.  Over QQ it is scaled to integer entries
    first, which keeps its nilpotency and spares Fraction arithmetic."""
    q, F = rep.quiver, rep.field
    n = rep.total_dim
    scale = math.lcm(*(Fraction(x).denominator for m in rep.maps for row in m for x in row))
    offs = dict(zip(q.vertices, [sum(rep.dims[:k]) for k in range(len(q.vertices))]))
    big = [[0] * n for _ in range(n)]
    for a, m in zip(q.arrows, rep.maps):
        for x, row in enumerate(m):
            big[offs[a.target] + x][offs[a.source]:offs[a.source] + len(row)] = [
                int(scale * y) for y in row]
    power, exponent = tuple(map(tuple, big)), 1
    while exponent < n:
        power, exponent = mat_mul(F, power, power), 2 * exponent
    return not any(x for row in power for x in row)


@pytest.fixture(scope="module")
def dual_modules():
    """Random modules of A3, A4, D4, D5 and every injective of A5, D4, D5,
    E6 over QQ, and their reductions to GF(2), GF(3), GF(5) where no
    denominator vanishes; keyed by field name."""
    rng = random.Random(20)
    mods = [random_module(kind, rng, 8) for kind in ("A3", "A4", "D4", "D5") for _ in range(6)]
    for kind in ("A5", "D4", "D5", "E6"):
        algebra = build_algebra_basis(kind)
        mods += [algebra.injective(i) for i in algebra.quiver.vertices]
    by_field = {QQ.name: mods}
    for p in (2, 3, 5):
        gf = PrimeField(p)
        by_field[gf.name] = [
            QuiverRep(rep.quiver, gf, rep.dims,
                      tuple(tuple(tuple(map(gf.coerce, row)) for row in m) for m in rep.maps))
            for rep in mods
            if all(Fraction(x).denominator % p for m in rep.maps for row in m for x in row)
        ]
    return by_field


@pytest.mark.parametrize("field", ["QQ", "GF(2)", "GF(3)", "GF(5)"])
def test_radical_side_matches_the_span_of_images_oracle(dual_modules, field):
    assert len(dual_modules[field]) >= 30
    for m in dual_modules[field]:
        layers = radical_layers_oracle(m)
        assert radical_series(m) == layers
        assert socle_top(m)["top"] == layers[0]
        assert is_nilpotent(m) and nilpotency_oracle(m)
        d = dual(m)
        assert (d.quiver, d.field, d.dims) == (m.quiver, m.field, m.dims)
        assert dual(d) == m
        assert check_relation(d) == (True, None)


def test_radical_side_needs_no_submodule_or_matrix_product(dual_modules, monkeypatch):
    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(prepmod, "sub_rep", forbidden)
    monkeypatch.setattr(prepmod, "mat_mul", forbidden)
    for mods in dual_modules.values():
        for m in mods:
            fingerprint(m), radical_series(m), socle_top(m), is_nilpotent(m)


def test_identity_maps_are_not_nilpotent():
    one = ((Fraction(1),),)
    rep = QuiverRep(A2, QQ, (1, 1), (one, one))
    assert not nilpotency_oracle(rep)
    assert not is_nilpotent(rep)
    # no layer is ever split off, on either side
    assert radical_series(rep) == radical_layers_oracle(rep) == ((0, 0),) * 3
    assert socle_top(rep) == {"top": (0, 0), "socle": (0, 0)}


def test_dual_transposes_onto_the_reverse_arrow():
    # A2's Q1 has 2->1 = [1] and 1->2 = 0; its dual swaps them
    q1 = build_algebra_basis("A2").injective(1)
    assert q1.maps == (((0,),), ((1,),))
    assert dual(q1).maps == (((1,),), ((0,),))


# ----------------------------------------------------------------------
# Hom / Ext / rigidity


def test_hom_dim_goldens(d4_rigid, d4_algebra):
    s1, s2 = simple_rep(A2, 1), simple_rep(A2, 2)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s1, s2) == 0
    s4 = simple_rep(D4, 4)
    assert hom_dim(s4, d4_rigid["by_label"]["M5"]) == 2
    assert hom_dim(s4, d4_algebra.injective(4)) == 1


def test_hom_direct_sum_additivity():
    rng = random.Random(5)
    for _ in range(10):
        a = random_module("A3", rng, 5)
        b = random_module("A3", rng, 5)
        c = random_module("A3", rng, 5)
        assert hom_dim(direct_sum(a, b), c) == hom_dim(a, c) + hom_dim(b, c)


def test_cartan_pairing():
    assert cartan_pairing(A2, (1, 0), (0, 1)) == -1
    assert cartan_pairing(A2, (1, 0), (1, 0)) == 2
    # (dim Q4, dim Q4) = 2 dim End(Q4) = 4, since Ext^1 vanishes on injectives
    assert cartan_pairing(D4, (1, 1, 2, 2), (1, 1, 2, 2)) == 4


def test_ext_goldens(d4_rigid, d4_algebra):
    s1, s2 = simple_rep(A2, 1), simple_rep(A2, 2)
    assert ext1_dim(s1, s2) == 1
    assert ext1_dim(s1, s1) == 0
    m7 = d4_rigid["by_label"]["M7"]
    m7_star = d4_rigid["M7*"]
    assert ext1_dim(m7, m7_star) == 1
    assert ext1_dim(m7_star, m7) == 1


def test_injectives_have_no_extensions(d4_algebra):
    rng = random.Random(6)
    for i in (1, 2, 3, 4):
        q = d4_algebra.injective(i)
        for _ in range(5):
            m = random_module("D4", rng, 6)
            assert ext1_dim(q, m) == 0
            assert ext1_dim(m, q) == 0


def test_ext_symmetry_on_random_pairs():
    rng = random.Random(7)
    for _ in range(10):
        m = random_module("D4", rng, 6)
        n = random_module("D4", rng, 6)
        assert ext1_dim(m, n) == ext1_dim(n, m)


def test_simples_are_rigid():
    for v in (1, 2, 3, 4):
        assert is_rigid(simple_rep(D4, v))


def test_nonrigid_family_module():
    m = d4_nonrigid_module()
    assert check_relation(m) == (True, None)
    assert socle_series(m) == ((0, 0, 1, 0), (1, 1, 0, 1), (0, 0, 1, 0))
    assert not is_rigid(m)
    assert ext1_dim(m, m) == 2


def test_is_rigid_solves_hom_once(monkeypatch):
    calls = []
    solve = prepmod.hom_basis

    def counted(m, n):
        calls.append((m, n))
        return solve(m, n)

    monkeypatch.setattr(prepmod, "hom_basis", counted)
    m = d4_nonrigid_module()
    assert not is_rigid(m)
    assert calls == [(m, m)]
    # an equal module that is not the same object still costs two solves
    calls.clear()
    assert ext1_dim(m, d4_nonrigid_module()) == 2
    assert len(calls) == 2


def test_socle_part_counts_hom_from_the_simple(d4_rigid):
    """dim Hom(S_j, T) = dim soc(T)_j, which the coefficient rows of
    exchange_matrix_from_sequences read from the socle."""
    summands = d4_rigid["ordered"] + [d4_rigid["M7*"], d4_rigid["M8*"]]
    for t in summands:
        for j in D4.vertices:
            assert len(socle_basis_at(t, j)) == hom_dim(simple_rep(D4, j), t)


def test_complete_rigid_module_is_rigid(d4_rigid):
    t = direct_sum(*d4_rigid["build"]["summands"])
    assert is_rigid(t)


def _embeds(m, target, tries=16):
    from clusterforge.prepmod import hom_basis
    from clusterforge.linalg import rank as mat_rank

    basis = hom_basis(m, target)
    rng = random.Random(0)
    for _ in range(tries):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in basis]
        ok = True
        for vi in range(len(m.quiver.vertices)):
            dv = m.dims[vi]
            if dv == 0:
                continue
            block = tuple(
                tuple(sum(c * h[vi][x][y] for c, h in zip(coeffs, basis)) for y in range(dv))
                for x in range(target.dims[vi])
            )
            if mat_rank(m.field, block) < dv:
                ok = False
                break
        if ok:
            return True
    return False


def test_m5_is_cogenerated_by_q4(d4_rigid):
    # M5 embeds in Q4 + Q4 but its socle S4^2 rules out a single copy
    m5 = d4_rigid["by_label"]["M5"]
    q4 = d4_rigid["by_label"]["Q4"]
    assert _embeds(m5, direct_sum(q4, q4))
    assert socle_top(m5)["socle"][3] > socle_top(q4)["socle"][3]


def test_q4_submodules_embed_in_q4(d4_rigid):
    from clusterforge.cases import q4_submodules

    q4 = d4_rigid["by_label"]["Q4"]
    for sub in q4_submodules():
        if sub.total_dim:
            assert _embeds(sub, q4)


# ----------------------------------------------------------------------
# isomorphism testing


def test_is_isomorphic_under_base_change(d4_algebra):
    q4 = d4_algebra.injective(4)
    p = ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3)))
    p_inv = ((Fraction(3), Fraction(-2)), (Fraction(-1), Fraction(1)))
    maps = []
    for arrow, m in zip(D4.arrows, q4.maps):
        new = m
        if arrow.target == 3:
            new = tuple(
                tuple(sum(p[i][k] * m[k][j] for k in range(2)) for j in range(len(m[0])))
                for i in range(2)
            )
        if arrow.source == 3:
            new = tuple(
                tuple(sum(new[i][k] * p_inv[k][j] for k in range(2)) for j in range(2))
                for i in range(len(new))
            )
        maps.append(new)
    twisted = QuiverRep(D4, QQ, q4.dims, tuple(maps))
    assert check_relation(twisted) == (True, None)
    assert twisted.maps != q4.maps
    assert is_isomorphic(q4, twisted)


def test_is_isomorphic_rejects_different_modules(d4_rigid):
    assert not is_isomorphic(simple_rep(D4, 1), simple_rep(D4, 2))
    assert not is_isomorphic(d4_rigid["by_label"]["M5"], d4_rigid["by_label"]["Q4"])


@pytest.mark.parametrize("vertex", [1, 3])
def test_is_isomorphic_rejects_modules_over_different_quivers(vertex):
    """S1 over A4 and over D4 have equal dims and maps; they are still no
    pair of modules over one algebra."""
    a4 = simple_rep(dynkin_quiver("A4"), vertex)
    with pytest.raises(PrepmodError, match="different quivers"):
        is_isomorphic(a4, simple_rep(D4, vertex))


def test_is_isomorphic_rejects_modules_over_different_fields():
    with pytest.raises(PrepmodError, match="GF\\(5\\)"):
        is_isomorphic(simple_rep(D4, 1), simple_rep(D4, 1, PrimeField(5)))


# ----------------------------------------------------------------------
# complete rigid construction and exchange matrices


def test_positive_root_counts():
    assert positive_root_count(A2, (1, 2)) == 3
    assert positive_root_count(A3, (1, 2, 3)) == 6
    assert positive_root_count(D4, (1, 2, 3, 4)) == 12
    assert positive_root_count(D4, (1, 2, 3)) == 6
    assert positive_root_count(dynkin_quiver("D5"), (1, 2, 3, 4, 5)) == 20
    assert positive_root_count(D4, ()) == 0
    for kind, count in (("E6", 36), ("E7", 63), ("E8", 120)):
        quiver = dynkin_quiver(kind)
        assert positive_root_count(quiver, quiver.vertices) == count


def test_positive_root_count_refuses_diagrams_not_of_dynkin_type():
    # affine D4, affine A2 (a triangle) and a star with five leaves, whose
    # sub-diagram on 1, 2, 3, 4 is D4 and still counts 12 roots
    for edges in (((1, 3), (2, 3), (3, 4), (3, 5)), ((1, 2), (1, 3), (2, 3)),
                  ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))):
        vertices = tuple(sorted({v for edge in edges for v in edge}))
        quiver = prepmod.DoubleQuiver("X", vertices, edges)
        with pytest.raises(prepmod.ResourceCapError, match="not of Dynkin type"):
            positive_root_count(quiver, vertices)
    assert positive_root_count(quiver, (1, 2, 3, 4)) == 12


def greedy_longest_word(kind, K):
    """A reduced word in the letters of K that no letter of K lengthens.
    The only such element of the parabolic subgroup W_K is its longest
    element w0^K, whose length is the number of positive roots of K."""
    word = ()
    while True:
        letter = next((s for s in K if weyl_length(kind, word + (s,)) > len(word)), None)
        if letter is None:
            return word
        word += (letter,)


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6"])
def test_positive_root_count_is_the_length_of_w0K(kind):
    quiver = dynkin_quiver(kind)
    for size in range(len(quiver.vertices) + 1):
        for K in itertools.combinations(quiver.vertices, size):
            assert positive_root_count(quiver, K) == len(greedy_longest_word(kind, K))


def test_build_complete_rigid_a2():
    res = build_complete_rigid("A2", (), (1, 2, 1))
    assert res["dim_NK"] == 3
    assert res["zero_positions"] == [2, 3]
    assert res["labels"] == ["M1", "Q1", "Q2"]
    dims = [s.dims for s in res["summands"]]
    assert dims == [(0, 1), (1, 1), (1, 1)]
    for a in res["summands"]:
        for b in res["summands"]:
            assert ext1_dim(a, b) == 0


def test_build_complete_rigid_a3_full_flag():
    res = build_complete_rigid("A3", (), (1, 2, 3, 1, 2, 1))
    assert res["dim_NK"] == 6
    assert len(res["summands"]) == 6
    t = direct_sum(*res["summands"])
    assert is_rigid(t)


def test_build_complete_rigid_d4(d4_rigid):
    res = d4_rigid["build"]
    assert res["dim_NK"] == 6
    assert res["zero_positions"] == [9, 10, 11, 12]
    assert res["q_k"] == {1: 6, 2: 4, 3: 5}


def test_build_complete_rigid_rejects_bad_word():
    with pytest.raises(PrepmodError):
        build_complete_rigid("A2", (), (1, 2))  # wrong length
    with pytest.raises(PrepmodError):
        # the prefix never mentions the K-letter 2
        build_complete_rigid("D4", (1, 2, 3), (1, 3, 1, 3, 1, 3, 4, 3, 1, 2, 3, 4))
    with pytest.raises(PrepmodError, match="letter 4 at position 4 is not in K"):
        build_complete_rigid("D4", (1, 2, 3), (1, 2, 3, 4) * 3)
    with pytest.raises(PrepmodError, match="not reduced: letter 6 at position 30"):
        build_complete_rigid("E6", (1,), (1, 2, 3, 4, 5, 6) * 6)
    with pytest.raises(PrepmodError, match="not vertices"):
        build_complete_rigid("A2", (), (1, 2, 3))
    assert len(build_complete_rigid("D4", (1, 2, 3), D4_RIGID_WORD)["summands"]) == 6


@pytest.mark.parametrize("kind", ["A3", "A4", "D4", "D5"])
def test_first_unreduced_position_matches_weyl_lengths(kind):
    """Against the independent length functions of tests/wordtools.py: the
    first prefix whose Weyl length falls short of its letter count."""
    quiver = dynkin_quiver(kind)
    rng = random.Random(kind)
    for _ in range(40):
        word = tuple(rng.choice(quiver.vertices) for _ in range(rng.randint(1, 14)))
        expected = next((p for p in range(1, len(word) + 1)
                         if weyl_length(kind, word[:p]) < p), None)
        assert first_unreduced_position(quiver, word) == expected, word


def test_exchange_matrix_rejects_overlap(d4_rigid):
    summands = d4_rigid["ordered"]
    seqs = [
        {"X": (0, 0, 0, 1, 0, 0), "Y": (0, 0, 0, 1, 0, 0)},
        {"X": (0, 0, 1, 0, 1, 0), "Y": (0, 0, 0, 1, 0, 0)},
    ]
    with pytest.raises(PrepmodError):
        exchange_matrix_from_sequences(summands, 4, seqs)


def test_exchange_matrix_rejects_summands_over_different_quivers(d4_rigid):
    summands = d4_rigid["ordered"][:5] + [simple_rep(A3, 1)]
    seqs = [{"X": (0,) * 6, "Y": (0,) * 6}] * 2
    with pytest.raises(PrepmodError, match="different quivers"):
        exchange_matrix_from_sequences(summands, 4, seqs, coeff_vertices=(4,))


# ----------------------------------------------------------------------
# random modules and serialization


def test_random_modules_satisfy_relation():
    rng = random.Random(8)
    for kind in ("A3", "D4"):
        for _ in range(10):
            m = random_module(kind, rng, 8)
            assert 0 < m.total_dim <= 8
            assert check_relation(m) == (True, None)
            assert is_nilpotent(m)


def test_span_sub_rep_is_submodule(d4_algebra):
    q3 = d4_algebra.injective(3)
    sub = span_sub_rep(q3, {3: [[1, 0, 0, 0]]})
    assert check_relation(sub) == (True, None)
    assert 0 < sub.total_dim <= q3.total_dim


def reference_span_sub_rep(rep, vectors):
    """span_sub_rep by ranks: a candidate is kept when it raises the rank of
    the vectors kept so far at its vertex."""
    q, F = rep.quiver, rep.field
    spans = {v: [] for v in q.vertices}

    def add_vector(v, vec):
        if rank(F, tuple(spans[v]) + (vec,)) == len(spans[v]):
            return False
        spans[v].append(vec)
        return True

    frontier = []
    for v, vecs in vectors.items():
        for vec in vecs:
            coerced = tuple(F.coerce(x) for x in vec)
            if add_vector(v, coerced):
                frontier.append((v, coerced))
    while frontier:
        v, vec = frontier.pop()
        for a in q.arrows_from[v]:
            image = mat_vec(F, rep.map_of(a), vec)
            if add_vector(a.target, image):
                frontier.append((a.target, image))
    return prepmod.sub_rep(rep, spans)


def random_span_inputs(kind, field, rng):
    """An injective sum of kind over field and random generating vectors;
    some vertices also get a sum of two earlier vectors, which is dependent."""
    alg = build_algebra_basis(kind)
    ambient = direct_sum(*[alg.injective(rng.choice(alg.quiver.vertices))
                           for _ in range(rng.randint(1, 2))])
    if field != QQ:
        maps = tuple(tuple(tuple(field.coerce(x) for x in row) for row in m)
                     for m in ambient.maps)
        ambient = QuiverRep(ambient.quiver, field, ambient.dims, maps)
    vectors = {}
    for v in rng.sample(alg.quiver.vertices, rng.randint(1, 3)):
        if ambient.dim(v):
            vecs = [[rng.randint(-2, 2) for _ in range(ambient.dim(v))]
                    for _ in range(rng.randint(1, 3))]
            if len(vecs) >= 2:
                vecs.append([x + y for x, y in zip(vecs[0], vecs[1])])
            vectors[v] = vecs
    return ambient, vectors


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("kind", ["A3", "A4", "D4", "D5"])
def test_span_sub_rep_matches_the_rank_oracle(kind, field):
    rng = random.Random(f"{kind}-{field}")
    for _ in range(12):
        ambient, vectors = random_span_inputs(kind, field, rng)
        assert span_sub_rep(ambient, vectors) == reference_span_sub_rep(ambient, vectors)


@pytest.mark.parametrize("kind", ["A3", "A4", "D4"])
def test_random_module_matches_the_rank_oracle(kind, monkeypatch):
    drawn = [random_module(kind, random.Random(s), 8) for s in range(20)]
    monkeypatch.setattr(prepmod, "span_sub_rep", reference_span_sub_rep)
    assert drawn == [random_module(kind, random.Random(s), 8) for s in range(20)]


def test_span_sub_rep_adds_candidates_without_rref(d4_algebra, monkeypatch):
    calls = []
    real_rref = linalg.rref

    def counted(field, a):
        calls.append(len(a))
        return real_rref(field, a)

    monkeypatch.setattr(linalg, "rref", counted)
    monkeypatch.setattr(prepmod, "rref", counted)
    spans = []
    monkeypatch.setattr(prepmod, "sub_rep", lambda rep, kept: spans.append(kept))
    ambient = direct_sum(d4_algebra.injective(4), d4_algebra.injective(3))
    # the third vector is the sum of the first two
    vectors = {3: [[1, 0, 2, 0, 0, 1], [0, 1, 0, 0, 1, 0], [1, 1, 2, 0, 1, 1]]}
    reference_span_sub_rep(ambient, vectors)
    assert len(calls) > 3  # one rank per candidate, the first three included
    calls.clear()
    span_sub_rep(ambient, vectors)
    assert calls == [] and spans[0] == spans[1]


def test_sub_rep_rejects_a_span_that_is_not_arrow_stable(a2_algebra):
    q1 = a2_algebra.injective(1)
    assert sub_rep(q1, {2: []}).dims == (1, 0)
    # 2->1 maps the space at vertex 2 onto vertex 1, outside the zero span
    with pytest.raises(PrepmodError, match="not stable under arrow 2->1"):
        sub_rep(q1, {1: []})


def test_module_through_a_zero_dimensional_vertex():
    """S1 + S3 over A3 is empty at vertex 2, between its two summands."""
    m = direct_sum(simple_rep(A3, 1), simple_rep(A3, 3))
    assert m.dims == (1, 0, 1)
    assert socle_top(m) == {"top": (1, 0, 1), "socle": (1, 0, 1)}
    assert socle_series(m) == ((1, 0, 1),)
    assert fingerprint(m) == ((1, 0, 1), ((1, 0, 1),), ((1, 0, 1),))
    assert dual(m) == m
    assert hom_dim(m, m) == 2
    assert hom_dim(m, simple_rep(A3, 2)) == 0
    assert hom_dim(zero_rep(A3), m) == 0
    assert [functor_E(m, i).dims for i in (1, 2, 3)] == [(0, 0, 1), (1, 0, 1), (1, 0, 0)]


def test_module_json_round_trip(d4_rigid):
    m5 = d4_rigid["by_label"]["M5"]
    blob = json.dumps(m5.to_json())
    back = QuiverRep.from_json(json.loads(blob))
    assert back.dims == m5.dims
    assert back.maps == m5.maps


def test_module_json_rejects_malformed_input():
    with pytest.raises(PrepmodError):
        QuiverRep.from_json({"type": "A2", "dims": {"1": -1, "2": 0}, "maps": {}})
    with pytest.raises(PrepmodError):
        QuiverRep.from_json(
            {"type": "A2", "dims": {"1": 1, "2": 1}, "maps": {"1->2": [["1", "2"]]}}
        )


A2_INJECTIVE_1 = {"type": "A2", "dims": {"1": 1, "2": 1}, "maps": {"1->2": [["0"]], "2->1": [["1"]]}}


@pytest.mark.parametrize(
    "blob, message",
    [
        ([A2_INJECTIVE_1], "must be a JSON object"),
        ({**A2_INJECTIVE_1, "dims": [1, 1]}, "dims must be a JSON object"),
        ({**A2_INJECTIVE_1, "maps": [[["1"]]]}, "maps must be a JSON object"),
        ({**A2_INJECTIVE_1, "dims": {"1": 1, "7": 1}}, "unknown keys ['7']"),
        ({**A2_INJECTIVE_1, "maps": {"1 ->2": [["1"]]}}, "unknown keys ['1 ->2']"),
        ({**A2_INJECTIVE_1, "maps": {"2->1": ["1"]}}, "must be a list of rows"),
        ({**A2_INJECTIVE_1, "maps": {"2->1": "1"}}, "must be a list of rows"),
        ({**A2_INJECTIVE_1, "type": 2}, "type must be a string"),
        # (2->1)(1->2) = 1 at vertex 1: e_1 (a* a) e_1 must vanish
        ({**A2_INJECTIVE_1, "maps": {"1->2": [["1"]], "2->1": [["1"]]}}, "relation at vertex 1"),
        ({**A2_INJECTIVE_1, "dims": {"1": 1.7, "2": 1}}, "dims must be integers"),
        ({**A2_INJECTIVE_1, "dims": {"1": True, "2": 1}}, "dims must be integers"),
        ({**A2_INJECTIVE_1, "dims": {"1": "1", "2": 1}}, "dims must be integers"),
        ({**A2_INJECTIVE_1, "maps": {"1->2": [[0.1]]}}, "map 1->2 entries must be integers"),
        ({**A2_INJECTIVE_1, "maps": {"2->1": [[True]]}}, "map 2->1 entries must be integers"),
        ({**A2_INJECTIVE_1, "maps": {"2->1": [[None]]}}, "map 2->1 entries must be integers"),
        ({"dims": {"1": 1}}, "missing the key 'type'"),
        ({"type": "A2", "maps": {}}, "missing the key 'dims'"),
        ({**A2_INJECTIVE_1, "maps": {"2->1": [["1/0"]]}}, "map 2->1 entry '1/0' is not a rational"),
        ({**A2_INJECTIVE_1, "maps": {"1->2": [["x"]]}}, "map 1->2 entry 'x' is not a rational"),
    ],
    ids=["blob-list", "dims-list", "maps-list", "dims-vertex", "maps-arrow", "row-not-list",
         "rows-not-list", "type-not-string", "relation", "dim-fraction", "dim-bool",
         "dim-string", "entry-float", "entry-bool", "entry-null", "no-type", "no-dims",
         "entry-zero-denominator", "entry-not-a-number"],
)
def test_module_json_rejects_malformed_module(blob, message):
    with pytest.raises(PrepmodError, match=re.escape(message)):
        QuiverRep.from_json(blob)


@pytest.mark.parametrize("kind", ["", "Dx", "D", "A0", "A-1", "Q3", "B2"])
def test_dynkin_quiver_rejects_bad_type_strings(kind):
    with pytest.raises(PrepmodError):
        dynkin_quiver(kind)


def test_functor_word_rejects_non_vertex_letters(d4_algebra):
    q4 = d4_algebra.injective(4)
    with pytest.raises(PrepmodError, match=r"letters \[9\]"):
        functor_E_word(q4, (4, 9))
    with pytest.raises(PrepmodError, match=r"letters \[0\]"):
        functor_E_word(q4, (0,), dagger=True)


def test_direct_sum_rejects_different_fields():
    with pytest.raises(PrepmodError, match="different fields"):
        direct_sum(simple_rep(A2, 1), simple_rep(A2, 1, PrimeField(3)))


def test_zero_rep_and_direct_sum():
    z = zero_rep(D4)
    s = simple_rep(D4, 3)
    assert direct_sum(z, s).dims == s.dims
    both = direct_sum(s, s)
    assert both.dims == (0, 0, 2, 0)
    assert hom_dim(both, both) == 4
