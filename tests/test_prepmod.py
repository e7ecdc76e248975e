import json
import random
import re
from fractions import Fraction

import pytest

from clusterforge.cases import d4_nonrigid_module
from clusterforge.fields import QQ
from clusterforge.prepmod import (
    D4_RIGID_WORD,
    PrepmodError,
    QuiverRep,
    build_algebra_basis,
    build_complete_rigid,
    cartan_pairing,
    check_relation,
    direct_sum,
    dynkin_quiver,
    exchange_matrix_from_sequences,
    ext1_dim,
    functor_E,
    functor_E_dagger,
    functor_E_word,
    hom_dim,
    is_isomorphic,
    is_nilpotent,
    is_rigid,
    positive_root_count,
    random_module,
    simple_rep,
    socle_series,
    socle_top,
    span_sub_rep,
    zero_rep,
)

D4 = dynkin_quiver("D4")
A2 = dynkin_quiver("A2")
A3 = dynkin_quiver("A3")


# ----------------------------------------------------------------------
# algebra basis and injectives


def test_algebra_dimensions(a2_algebra, a3_algebra, d4_algebra):
    assert a2_algebra.dimension == 4
    assert a3_algebra.dimension == 10
    assert d4_algebra.dimension == 28
    assert a2_algebra.loewy_length == 2
    assert d4_algebra.loewy_length == 5


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
        assert sum(soc) == 1 and soc[D4.vertex_index(i)] == 1


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
            expected[D4.vertex_index(v)] -= report["top"][D4.vertex_index(v)]
            assert list(image.dims) == expected
            assert check_relation(image) == (True, None)
            quotient = functor_E_dagger(m, v)
            expected = list(m.dims)
            expected[D4.vertex_index(v)] -= report["socle"][D4.vertex_index(v)]
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


# ----------------------------------------------------------------------
# complete rigid construction and exchange matrices


def test_positive_root_counts():
    assert positive_root_count(A2, (1, 2)) == 3
    assert positive_root_count(A3, (1, 2, 3)) == 6
    assert positive_root_count(D4, (1, 2, 3, 4)) == 12
    assert positive_root_count(D4, (1, 2, 3)) == 6
    assert positive_root_count(dynkin_quiver("D5"), (1, 2, 3, 4, 5)) == 20
    assert positive_root_count(D4, ()) == 0


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


def test_exchange_matrix_rejects_overlap(d4_rigid):
    summands = d4_rigid["ordered"]
    seqs = [
        {"X": (0, 0, 0, 1, 0, 0), "Y": (0, 0, 0, 1, 0, 0)},
        {"X": (0, 0, 1, 0, 1, 0), "Y": (0, 0, 0, 1, 0, 0)},
    ]
    with pytest.raises(PrepmodError):
        exchange_matrix_from_sequences(summands, 4, seqs)


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
    ],
    ids=["blob-list", "dims-list", "maps-list", "dims-vertex", "maps-arrow", "row-not-list",
         "rows-not-list", "type-not-string", "relation"],
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


def test_zero_rep_and_direct_sum():
    z = zero_rep(D4)
    s = simple_rep(D4, 3)
    assert direct_sum(z, s).dims == s.dims
    both = direct_sum(s, s)
    assert both.dims == (0, 0, 2, 0)
    assert hom_dim(both, both) == 4
