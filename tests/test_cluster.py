import itertools
import json
import random
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge.cluster import (
    ClusterError,
    ExchangeMatrix,
    LaurentPhenomenonError,
    Seed,
    builtin_seed,
    cluster_monomials,
    explore,
    is_finite_type,
    mutate_matrix,
    mutate_seed,
    mutation_class_to_dot,
)
from clusterforge.laurent import InexactDivisionError, LaurentPoly

GR25_ROWS = ((0, -1), (1, 0), (-1, 0), (1, 0), (-1, 1), (0, -1), (0, 1))
GR25_MU1 = ((0, 1), (-1, 0), (1, -1), (-1, 0), (1, 0), (0, -1), (0, 1))


def test_gr25_matrix_mutation_golden():
    b = ExchangeMatrix(GR25_ROWS, 5)
    assert mutate_matrix(b, 1).rows == GR25_MU1


def test_matrix_mutation_involution():
    b = ExchangeMatrix(GR25_ROWS, 5)
    for k in (1, 2):
        assert mutate_matrix(mutate_matrix(b, k), k).rows == b.rows


def test_zero_principal_part_mutation_flips_coefficient_column():
    b = builtin_seed("d4_flag").matrix
    m = mutate_matrix(b, 1)
    assert m.rows == ((0, 0), (0, 0), (0, -1), (1, 1), (0, -1), (-1, 0))


def test_direction_out_of_range():
    b = ExchangeMatrix(GR25_ROWS, 5)
    with pytest.raises(ClusterError):
        mutate_matrix(b, 3)
    with pytest.raises(ClusterError):
        mutate_matrix(b, 0)


def test_skew_symmetry_enforced():
    with pytest.raises(ClusterError):
        ExchangeMatrix(((0, 1), (1, 0)), 0)
    with pytest.raises(ClusterError):
        ExchangeMatrix(((1,),), 0)


def test_gr25_seed_mutation_golden():
    s = builtin_seed("grassmannian_2_5")
    t = mutate_seed(s, 1)
    y = LaurentPoly.variables(s.varnames)
    expected = (y[1] * y[3] + y[2] * y[4]).div_exact(y[0])
    assert t.cluster[0] == expected
    assert t.matrix.rows == GR25_MU1
    back = mutate_seed(t, 1)
    assert back.cluster == s.cluster and back.matrix.rows == s.matrix.rows


def test_quadric_seed_exchange_relations():
    n = 4
    s = builtin_seed("quadric", n=n)
    y = {name: LaurentPoly.variable(name, s.varnames) for name in s.varnames}
    t = mutate_seed(s, 1)
    # y_2 y_2* = p_1 + y_1 y_8
    assert s.cluster[0] * t.cluster[0] == y["p1"] + y["y1"] * y["y8"]
    t3 = mutate_seed(s, 2)
    # y_3 y_3* = y_4 y_5 + p_1
    assert s.cluster[1] * t3.cluster[1] == y["y4"] * y["y5"] + y["p1"]


def test_quadric_requires_n_at_least_4():
    with pytest.raises(ClusterError):
        builtin_seed("quadric", n=3)
    with pytest.raises(ClusterError):
        builtin_seed("nonsense")


def test_gr25_exploration_counts():
    mc = explore(builtin_seed("grassmannian_2_5"))
    assert mc.exhausted
    assert mc.cluster_count == 5
    assert len(mc.variables()) == 5
    # exhausted classes are (d-n)-regular
    assert all(sorted(mc.graph[key]) == [1, 2] for key in mc.order)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_quadric_exploration_counts(n):
    mc = explore(builtin_seed("quadric", n=n))
    assert mc.exhausted
    assert mc.cluster_count == 2 ** (n - 2)
    assert len(mc.variables()) == 2 * (n - 2)


def test_rank_zero_seed():
    varnames = ("c1", "c2")
    matrix = ExchangeMatrix(((), ()), 2)
    cluster = tuple(LaurentPoly.variables(varnames))
    mc = explore(Seed(matrix, cluster, varnames))
    assert mc.exhausted and mc.cluster_count == 1 and len(mc.variables()) == 0


def test_d4_flag_finite_type():
    for name in ("d4_flag", "d4_flag_extended"):
        result = is_finite_type(builtin_seed(name))
        assert result["finite"]
        assert result["cluster_variable_count"] == 4
        assert result["cluster_count"] == 4


def test_rank2_affine_seed_is_inconclusive():
    varnames = ("y1", "y2")
    matrix = ExchangeMatrix(((0, 2), (-2, 0)), 0)
    seed = Seed(matrix, tuple(LaurentPoly.variables(varnames)), varnames)
    result = is_finite_type(seed, max_depth=20)
    assert not result["finite"] and not result["exhausted"]


def test_exploration_growing_degrees_in_affine_type():
    # the denominator degree of the new variable grows strictly along the
    # alternating mutation walk, so no cluster can ever repeat
    varnames = ("y1", "y2")
    matrix = ExchangeMatrix(((0, 2), (-2, 0)), 0)
    seed = Seed(matrix, tuple(LaurentPoly.variables(varnames)), varnames)
    degrees = []
    current = seed
    for k in (1, 2, 1, 2, 1, 2):
        current = mutate_seed(current, k)
        new_var = current.cluster[k - 1]
        degrees.append(max(max(-e for e in exps) for exps, _ in new_var.sorted_terms()))
    assert degrees == sorted(degrees) and degrees[0] >= 1 and degrees[-1] > degrees[0]


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_kronecker_explore_to_depth_16():
    # The exchange graph is a line: 2*16 + 1 clusters and 2*16 + 2 variables,
    # whose values at (1, 1) are F_1, F_3, ..., F_33, each taken twice, and
    # whose coefficients are all positive (Lee-Schiffler positivity).  Its
    # last divisions have dividends of hundreds of terms.
    mc = explore(plain_seed(KRONECKER_ROWS), max_depth=16)
    variables = mc.variables()
    assert (mc.cluster_count, len(variables)) == (33, 34)
    values = sorted(p.evaluate({"x1": 1, "x2": 1}) for p in variables)
    assert values == sorted(fibonacci(2 * i + 1) for i in range(17) for _ in range(2))
    assert all(c > 0 for p in variables for c in p.terms.values())


def test_markov_explore_to_depth_5():
    # The exchange graph is the trivalent tree: 3 * 2^5 - 2 clusters within
    # depth 5, each a Markov triple a^2 + b^2 + c^2 = 3abc at (1, 1, 1).
    mc = explore(plain_seed(MARKOV_ROWS), max_depth=5)
    assert mc.cluster_count == 94
    for seed in mc.seeds.values():
        a, b, c = (p.evaluate({"x1": 1, "x2": 1, "x3": 1}) for p in seed.cluster)
        assert a * a + b * b + c * c == 3 * a * b * c


def test_coefficient_stability_and_exchange_identity():
    s = builtin_seed("grassmannian_2_5")
    mc = explore(s)
    frozen = s.frozen
    for key in mc.order:
        assert mc.seeds[key].frozen == frozen
    for src, k, dst in mc.edges():
        a, b = mc.seeds[src], mc.seeds[dst]
        binomial = a.exchange_binomial(k)
        old = a.cluster[k - 1]
        assert any(old * cand == binomial for cand in b.cluster)


def test_laurent_phenomenon_no_division_failure():
    # exploration raises LaurentPhenomenonError on any inexact division
    for name, n in (("grassmannian_2_5", None), ("quadric", 5), ("d4_flag_extended", None)):
        mc = explore(builtin_seed(name, n=n))
        assert mc.exhausted


def test_explore_seed_cap_marks_not_exhausted():
    mc = explore(builtin_seed("quadric", n=6), max_seeds=3)
    assert not mc.exhausted
    assert mc.cluster_count == 3


def test_cluster_monomials_degree_bounds():
    mc = explore(builtin_seed("grassmannian_2_5"))
    records = cluster_monomials(mc, 0)
    assert len(records) == 1 and records[0]["monomial"].is_one
    records = cluster_monomials(mc, 1)
    degree_one = [r for r in records if r["degree"] == 1]
    assert len(degree_one) == 10  # 5 mutable variables + 5 coefficients


def test_cluster_monomials_exclude_exchangeable_pairs():
    s = builtin_seed("quadric", n=4)
    mc = explore(s)
    records = cluster_monomials(mc, 2)
    polys = {r["monomial"] for r in records}
    for j in (1, 2):
        old = s.cluster[j - 1]
        new = mutate_seed(s, j).cluster[j - 1]
        assert old * new not in polys
    # non-exchangeable mutable pairs do co-occur
    other = mutate_seed(s, 2).cluster[1]
    assert s.cluster[0] * s.cluster[1] in polys
    assert s.cluster[0] * other in polys


def test_cluster_monomials_requires_exhausted():
    mc = explore(builtin_seed("quadric", n=6), max_seeds=3)
    with pytest.raises(ClusterError):
        cluster_monomials(mc, 1)


def test_dot_export_deterministic():
    mc = explore(builtin_seed("quadric", n=4))
    dot = mutation_class_to_dot(mc)
    assert dot == mutation_class_to_dot(mc)
    assert dot.startswith("graph mutation_class {")
    assert dot.count(" -- ") == 4  # 4-cycle exchange graph of (A1)^2


def test_seed_json_round_trip():
    s = builtin_seed("d4_flag_extended")
    blob = json.dumps(s.to_json())
    t = Seed.from_json(json.loads(blob))
    assert t.matrix.rows == s.matrix.rows
    assert t.cluster == s.cluster
    assert t.labels == s.labels


def test_seed_json_rejects_malformed_seed():
    blob = builtin_seed("d4_flag").to_json()
    zero = {"vars": blob["cluster"][0]["vars"], "terms": []}
    with_true = [[True if x == 1 else x for x in row] for row in blob["matrix"]]
    for bad in ([blob], "seed", {**blob, "matrix": [[0, "1"], [-1, 0]]},
                {**blob, "matrix": with_true},
                {**blob, "d": blob["d"] + 5}, {**blob, "d": str(blob["d"])},
                {**blob, "labels": [1] * len(blob["labels"])}, {**blob, "labels": []},
                {**blob, "labels": "abcdefghij"[:len(blob["labels"])]},
                {**blob, "cluster": [zero] + blob["cluster"][1:]},
                {**blob, "cluster": blob["cluster"][1:2] + blob["cluster"][1:]}):
        with pytest.raises(ClusterError):
            Seed.from_json(bad)


def test_dot_export_escapes_labels():
    s = builtin_seed("quadric", n=4)
    evil = 'a"] ; evil [x="'
    s = Seed(s.matrix, s.cluster, (evil, "back\\slash") + s.labels[2:])
    dot = mutation_class_to_dot(explore(s))
    assert '  s0 [label="a\\"] ; evil [x=\\", back\\\\slash"];' in dot.splitlines()
    # Every node and edge line stays one statement with a single quoted label.
    for line in dot.splitlines()[1:-1]:
        assert re.fullmatch(r' *s\d+( -- s\d+)? \[label="(?:[^"\\]|\\.)*"\];', line), line


# (rows, frozen rows, direction) where matrix mutation leaves rows or
# positions alone: a rank-1 principal part, so only frozen rows change; a
# zero principal column k with a frozen row that meets it; row k with no
# positive entry (direction 1) and with no negative one (direction 2),
# each beside a frozen row with b_ik = 0.
SPARSE_MUTATION_CASES = [
    (((0,), (2,), (-1,), (0,)), 3, 1),
    (((0, 0, 0), (0, 0, -2), (0, 2, 0), (0, 1, -1), (3, 0, 0)), 2, 1),
    (((0, -1, -2), (1, 0, 3), (2, -3, 0), (1, 2, -1), (-2, 0, 1), (0, 5, 5)), 3, 1),
    (((0, -1, -2), (1, 0, 3), (2, -3, 0), (1, 2, -1), (-2, 0, 1), (0, 5, 5)), 3, 2),
]


def random_exchange_matrices(count=100):
    """Random matrices with skew-symmetric principal part and up to three
    frozen rows, with a random mutable direction for each, followed by the
    SPARSE_MUTATION_CASES."""
    rng = random.Random(0)
    for _ in range(count):
        m = rng.randint(1, 4)
        extra = rng.randint(0, 3)
        principal = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                v = rng.randint(-3, 3)
                principal[i][j] = v
                principal[j][i] = -v
        rows = [tuple(r) for r in principal]
        rows += [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(extra)]
        yield ExchangeMatrix(tuple(rows), extra), rng.randint(1, m)
    for rows, n_frozen, k in SPARSE_MUTATION_CASES:
        yield ExchangeMatrix(rows, n_frozen), k


def test_random_matrix_mutation_properties():
    for b, k in random_exchange_matrices():
        mutated = mutate_matrix(b, k)
        # built without the constructor's checks, which it passes
        assert ExchangeMatrix(mutated.rows, mutated.n_frozen) == mutated
        assert mutate_matrix(mutated, k).rows == b.rows


def dense_mutation(rows, k):
    """The textbook formula entry by entry: b'_ij = -b_ij when i = k or
    j = k, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    kk = k - 1
    return tuple(
        tuple(
            -bij if kk in (i, j)
            else bij + (abs(row[kk]) * rows[kk][j] + row[kk] * abs(rows[kk][j])) // 2
            for j, bij in enumerate(row)
        )
        for i, row in enumerate(rows)
    )


def test_matrix_mutation_matches_dense_formula():
    frozen_rows = 0
    seen = set()
    for b, k in random_exchange_matrices():
        frozen_rows += b.n_frozen
        assert mutate_matrix(b, k).rows == dense_mutation(b.rows, k)
        row_k = b.rows[k - 1]
        seen.update(name for name, hit in (
            ("rank 1", b.n_mutable == 1 and b.n_frozen > 0),
            ("zero column", not any(row_k) and any(row[k - 1] for row in b.rows)),
            ("no positive", min(row_k) < 0 and max(row_k) == 0),
            ("no negative", max(row_k) > 0 and min(row_k) == 0),
            ("frozen b_ik = 0", any(row[k - 1] == 0 for row in b.rows[b.n_mutable:])),
        ) if hit)
    assert frozen_rows > 0
    assert len(seen) == 5, seen


@st.composite
def skew_symmetric_rows(draw):
    """The principal part of a principal_seeds() seed, or a random
    skew-symmetric matrix of rank at most 4 with entries in -3..3."""
    if draw(st.booleans()):
        s = draw(principal_seeds())
        return s.matrix.rows[: s.matrix.n_mutable]
    m = draw(st.integers(1, 4))
    b = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            b[i][j] = draw(st.integers(-3, 3))
            b[j][i] = -b[i][j]
    return tuple(map(tuple, b))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(skew_symmetric_rows(), st.lists(st.integers(0, 3), max_size=6))
def test_cvector_mutation_matches_the_framed_matrix(rows, path):
    """_mutate_cvecs along a path against the textbook mutation of the
    framed matrix [B; C], C = I at the start: the c-vectors are the columns
    of C, and each is sign-coherent (Derksen-Weyman-Zelevinsky)."""
    from clusterforge import cluster

    m = len(rows)
    framed = tuple(rows) + tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    cvecs = tuple(zip(*framed[m:]))
    for step in path:
        kk = step % m
        cvecs = cluster._mutate_cvecs(cvecs, framed[kk], kk)
        framed = dense_mutation(framed, kk + 1)
        assert cvecs == tuple(zip(*framed[m:]))
        for c in cvecs:
            assert min(c) >= 0 or max(c) <= 0, c


# ----------------------------------------------------------------------
# explore against a reference search that mutates every direction


def reference_explore(s, max_seeds=100000, max_depth=64):
    """Breadth-first search that computes every edge, the one back to the
    parent included; returns (seeds, graph, order, exhausted) as explore
    would."""
    key0 = s.key()
    seeds, graph, order = {key0: s}, {key0: {}}, [key0]
    frontier = [(s, key0)]
    exhausted = True
    depth = 0
    while frontier:
        if depth >= max_depth:
            exhausted = False
            break
        next_frontier = []
        for seed, skey in frontier:
            for k in range(1, seed.matrix.n_mutable + 1):
                neighbor = mutate_seed(seed, k)
                nkey = neighbor.key()
                if nkey not in seeds:
                    if len(seeds) >= max_seeds:
                        exhausted = False
                        continue
                    seeds[nkey] = neighbor
                    graph[nkey] = {}
                    order.append(nkey)
                    next_frontier.append((neighbor, nkey))
                graph[skey][k] = nkey
        frontier = next_frontier
        depth += 1
        if not exhausted:
            break
    return seeds, graph, order, exhausted


def plain_seed(rows):
    names = tuple(f"x{i}" for i in range(1, len(rows) + 1))
    return Seed(ExchangeMatrix(tuple(map(tuple, rows)), 0),
                tuple(LaurentPoly.variables(names)), names)


A4_ROWS = ((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0))
D4_ROWS = ((0, 0, 1, 0), (0, 0, 1, 0), (-1, -1, 0, 1), (0, 0, -1, 0))
KRONECKER_ROWS = ((0, 2), (-2, 0))
MARKOV_ROWS = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


def repeated_entry_seed():
    """The D4 matrix over the cluster (x1, x1, x2, x3): revisits whose
    mutable entries repeat have no unique permutation to the stored seed."""
    names = ("x1", "x2", "x3")
    x1, x2, x3 = LaurentPoly.variables(names)
    return Seed(ExchangeMatrix(D4_ROWS, 0), (x1, x1, x2, x3), ("x1", "x1*", "x2", "x3"))


def repeated_mutable_seed():
    """A rank-4 matrix over the cluster (1, 1, x1^-1, 1): two c-vector keys
    met at depth 2 land on stored seeds whose mutable entries repeat, so
    explore keeps no permutation for them.  Seed files reject repeated
    entries, so this seed exists only through the API."""
    (x1,) = LaurentPoly.variables(("x1",))
    one = LaurentPoly.one(("x1",))
    rows = ((0, 0, 1, 1), (0, 0, 2, -1), (-1, -2, 0, 1), (-1, 1, -1, 0))
    return Seed(ExchangeMatrix(rows, 0), (one, one, x1 ** -1, one), ("a", "b", "c", "d"))


@pytest.mark.parametrize("make, limits", [
    (lambda: plain_seed(A4_ROWS), {}),
    (lambda: plain_seed(D4_ROWS), {}),
    (lambda: builtin_seed("quadric", n=6), {}),
    (lambda: builtin_seed("grassmannian_2_5"), {}),
    (lambda: builtin_seed("d4_flag_extended"), {}),
    (lambda: plain_seed(KRONECKER_ROWS), {"max_depth": 6}),
    (lambda: plain_seed(MARKOV_ROWS), {"max_depth": 3}),
    (lambda: plain_seed(A4_ROWS), {"max_seeds": 10}),
    (lambda: plain_seed(D4_ROWS), {"max_depth": 2}),
    (lambda: plain_seed(D4_ROWS), {"max_seeds": 20}),
    (lambda: builtin_seed("quadric", n=6), {"max_depth": 2}),
    (repeated_entry_seed, {}),
    (repeated_mutable_seed, {"max_depth": 2}),
], ids=["A4", "D4", "quadric6", "gr25", "d4_flag_extended", "kronecker-depth6",
        "markov-depth3", "A4-max-seeds10", "D4-depth2", "D4-max-seeds20", "quadric6-depth2",
        "repeated-entries", "repeated-mutable-entries-depth2"])
def test_explore_matches_reference_search(make, limits):
    assert_explore_matches_reference(make(), **limits)


def test_explore_keeps_no_permutation_where_mutable_entries_repeat(monkeypatch):
    from clusterforge import cluster

    found = []  # the perm of each step that lands on a stored key
    search = cluster._search

    def recording_search(nodes, root, step, *args):
        def recording_step(*step_args):
            nkey, new_node, new_rows, perm = step(*step_args)
            if nkey in nodes:
                found.append(perm)
            return nkey, new_node, new_rows, perm

        return search(nodes, root, recording_step, *args)

    monkeypatch.setattr(cluster, "_search", recording_search)
    explore(repeated_mutable_seed(), max_depth=2)
    assert found == [None, None]


def disagrees(stored, candidate):
    """True when the candidate's mutable entries are distinct and its matrix
    is not the stored one under the permutation that matches the clusters."""
    if len(set(candidate.mutable)) != len(candidate.mutable):
        return False
    m, d = candidate.matrix.n_mutable, candidate.matrix.d
    perm = [stored.mutable.index(p) for p in candidate.mutable] + list(range(m, d))
    return any(candidate.matrix.rows[i][j] != stored.matrix.rows[perm[i]][perm[j]]
               for i in range(d) for j in range(m))


def assert_explore_matches_reference(s, **limits):
    """explore finds the reference's class, or, where a cluster that is not
    free gives two seeds one key but different matrices, raises."""
    seeds, graph, order, exhausted = reference_explore(s, **limits)
    if any(disagrees(seeds[dst], mutate_seed(seeds[src], k))
           for src in order for k, dst in graph[src].items()):
        with pytest.raises(ClusterError, match="disagrees with the stored representative"):
            explore(s, **limits)
        return
    mc = explore(s, **limits)
    # explore keys its seeds by ids 0..n-1 in discovery order, and the
    # reference by Seed.key(): the ids are mapped to keys here
    assert mc.initial_key == 0 and mc.order == list(mc.seeds) == list(range(mc.cluster_count))
    keys = [mc.seeds[i].key() for i in mc.order]
    assert len(set(keys)) == mc.cluster_count
    assert keys == order
    assert mc.exhausted == exhausted
    for i, key in zip(mc.order, keys):
        assert mc.seeds[i].cluster == seeds[key].cluster
        assert mc.seeds[i].matrix.rows == seeds[key].matrix.rows
        assert [(k, keys[dst]) for k, dst in mc.graph[i].items()] == list(graph[key].items())


def counting_exchanges(monkeypatch):
    """Patch cluster.mutate_seed to record each Laurent exchange's direction."""
    from clusterforge import cluster

    exchanges = []

    def counting_mutate_seed(s, k):
        exchanges.append(k)
        return mutate_seed(s, k)

    monkeypatch.setattr(cluster, "mutate_seed", counting_mutate_seed)
    return exchanges


# Clusters and cluster variables (Fomin-Zelevinsky): type A_n has the
# Catalan number C_{n+1} and n(n+3)/2, D_n has (3n-2)/n * C(2n-2, n-1)
# and n^2, and (A_1)^r has 2^r and 2r.
CLASS_SIZES = pytest.mark.parametrize("make, clusters, variables", [
    (lambda: plain_seed(A4_ROWS), comb(10, 5) // 6, 4 * 7 // 2),
    (lambda: plain_seed(D4_ROWS), (3 * 4 - 2) * comb(6, 3) // 4, 4 ** 2),
    (lambda: builtin_seed("quadric", n=6), 2 ** (6 - 2), 2 * (6 - 2)),
    (lambda: builtin_seed("grassmannian_2_5"), comb(6, 3) // 4, 2 * 5 // 2),  # A_2
    (lambda: builtin_seed("d4_flag_extended"), 2 * 2, 2 * 2),  # A_1 x A_1
], ids=["A4", "D4", "quadric6", "gr25", "d4_flag_extended"])


@CLASS_SIZES
def test_explore_mutates_each_edge_once(monkeypatch, make, clusters, variables):
    """On a free cluster each edge mutates B once, and only the edges that
    find a new cluster variable make a Laurent exchange: one per variable
    outside the initial cluster."""
    from clusterforge import cluster

    b_mutations, mutate_rows = [], cluster._mutate_rows

    def counting_mutate_rows(rows, kk):
        b_mutations.append(kk)
        return mutate_rows(rows, kk)

    s = make()
    exchanges = counting_exchanges(monkeypatch)
    monkeypatch.setattr(cluster, "_mutate_rows", counting_mutate_rows)
    mc = explore(s)
    assert mc.exhausted and mc.cluster_count == clusters
    assert len(mc.variables()) == variables
    assert len(exchanges) == variables - s.matrix.n_mutable
    assert len(b_mutations) == clusters * s.matrix.n_mutable // 2
    assert mutation_class_to_dot(mc).count(" -- ") == clusters * s.matrix.n_mutable // 2


def test_explore_checks_a_stored_neighbour_in_integers(monkeypatch):
    """A neighbour found by its c-vectors makes no Laurent exchange, but its
    mutated B is still compared with the stored seed's, frozen rows
    included.  The B mutation is corrupted only inside the check that the
    search runs on such an edge: seeds built by the step, with or without
    an exchange, keep their true matrices."""
    from clusterforge import cluster

    mutate_rows, search, checking = cluster._mutate_rows, cluster._search, []

    def search_with_watched_check(nodes, root, step, max_seeds, max_depth, check):
        def watched_check(*args):
            checking.append(True)
            try:
                return check(*args)
            finally:
                checking.pop()

        return search(nodes, root, step, max_seeds, max_depth, watched_check)

    def corrupt_last_row_in_checks(rows, kk):
        new_rows = mutate_rows(rows, kk)
        if not checking:
            return new_rows
        return new_rows[:-1] + (tuple(x + 1 for x in new_rows[-1]),)

    s = builtin_seed("grassmannian_2_5")
    assert s.matrix.n_frozen > 0
    monkeypatch.setattr(cluster, "_search", search_with_watched_check)
    monkeypatch.setattr(cluster, "_mutate_rows", corrupt_last_row_in_checks)
    with pytest.raises(ClusterError, match="disagrees with the stored representative"):
        explore(s)


@pytest.mark.parametrize("n, max_seeds", [(10, 50), (8, 10)])
def test_explore_past_max_seeds_exchanges_once_per_variable(monkeypatch, n, max_seeds):
    """The seeds refused past max_seeds cost no division when their new
    variable is stored: quadric(n) has 2(n - 2) cluster variables, n - 2 of
    them initial, so at most n - 2 exchanges run however many seeds are
    refused."""
    exchanges = counting_exchanges(monkeypatch)
    mc = explore(builtin_seed("quadric", n=n), max_seeds=max_seeds)
    assert not mc.exhausted and mc.cluster_count == max_seeds
    assert len(exchanges) <= n - 2


def test_explore_raises_at_the_first_inexact_exchange():
    """A reused variable never hides an inexact division: over the cluster
    (y1 + 1, y2), a polynomial divisor, or (2 y1, y2), a monomial one,
    explore raises where the search that divides on every edge first
    fails, in the same direction of the same seed, with the message that
    div_exact gives on the exchange binomial."""
    y1, y2 = LaurentPoly.variables(("y1", "y2"))
    for first, message in (
        (y1 + 1, "inexact division: remainder has leading term (0, 1) -> 1"),
        (2 * y1, "inexact division: coefficient 1 is not a multiple of 2"),
    ):
        s = Seed(ExchangeMatrix(((0, 1), (-1, 0)), 0), (first, y2), ("y1", "y2"))
        with pytest.raises(LaurentPhenomenonError) as expected:
            reference_explore(s)
        with pytest.raises(LaurentPhenomenonError) as raised:
            explore(s)
        assert raised.value.direction == expected.value.direction
        assert raised.value.seed.cluster == expected.value.seed.cluster
        assert str(raised.value) == str(expected.value)
        seed, k = raised.value.seed, raised.value.direction
        with pytest.raises(InexactDivisionError) as detail:
            seed.exchange_binomial(k).div_exact(seed.cluster[k - 1])
        assert str(detail.value) == message
        assert str(raised.value) == str(LaurentPhenomenonError(seed, k, message))


def test_repeated_mutable_entries_record_no_permutation(monkeypatch):
    """explore keys the initial seed by its c-vectors under the rule of
    every stored seed: repeated mutable entries give no permutation.  No
    edge reads that entry back, as each neighbour of the initial seed has
    its edge back pending, so the test watches the root that the search
    indexes, {c-vector: perm[i]} over the identity c-vectors, or None.
    The class explore returns is checked to carry the initial seed itself
    under id 0."""
    from clusterforge import cluster

    roots, search = [], cluster._search

    def recording_search(nodes, root, *args):
        roots.append(root)
        return search(nodes, root, *args)

    monkeypatch.setattr(cluster, "_search", recording_search)
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for s, expected in ((repeated_entry_seed(), None),
                        (plain_seed(D4_ROWS), {c: i for i, c in enumerate(identity)})):
        roots.clear()
        mc = explore(s)
        (_, seed, rows, perm), = roots
        assert (seed, rows) == (s, s.matrix.rows)
        assert (perm if perm is None else dict(zip(identity, perm))) == expected
        assert mc.initial_key == 0 and mc.order[0] == 0
        assert mc.seeds[0] is s


# ----------------------------------------------------------------------
# is_finite_type, a search over integer matrices, against the reference
# Laurent search, which shares no code with the search that explore and
# is_finite_type both run


def explore_summary(s, **limits):
    """What is_finite_type should report on a free cluster: the counts of
    reference_explore."""
    seeds, _, _, exhausted = reference_explore(s, **limits)
    variables = {p for seed in seeds.values() for p in seed.mutable}
    return {"finite": exhausted, "exhausted": exhausted,
            "cluster_variable_count": len(variables), "cluster_count": len(seeds)}


def dynkin_rows(letter, rank):
    """A linear orientation of A_rank, D_rank with node 3 joined to 1, 2
    and 4, or E_rank with Bourbaki's numbering: the line 1-3-4-...-rank
    with node 2 joined to 4."""
    edges = {
        "A": [(i, i + 1) for i in range(1, rank)],
        "D": [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)],
        "E": [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, rank)],
    }[letter]
    b = [[0] * rank for _ in range(rank)]
    for i, j in edges:
        b[i - 1][j - 1], b[j - 1][i - 1] = 1, -1
    return b


FINITE_CLASSES = {
    **{f"A{n}": lambda n=n: plain_seed(dynkin_rows("A", n)) for n in range(1, 6)},
    **{f"D{n}": lambda n=n: plain_seed(dynkin_rows("D", n)) for n in (4, 5)},
    **{f"quadric{n}": lambda n=n: builtin_seed("quadric", n=n) for n in range(4, 9)},
    "gr25": lambda: builtin_seed("grassmannian_2_5"),
    "d4_flag": lambda: builtin_seed("d4_flag"),
    "d4_flag_extended": lambda: builtin_seed("d4_flag_extended"),
}
LIMIT_GRID = [{"max_seeds": s, "max_depth": d} for s in (1, 2, 7, 50) for d in (1, 2, 3)]


@pytest.mark.parametrize("rank, clusters, variables", [
    (6, 833, 42),
    (7, 4160, 70),
], ids=["E6", "E7"])
def test_explore_counts_e6_and_e7(monkeypatch, rank, clusters, variables):
    """Fomin-Zelevinsky's counts for E6 and E7: the clusters, and the
    cluster variables, one per almost positive root.  Each variable outside
    the initial cluster costs one Laurent exchange."""
    s = plain_seed(dynkin_rows("E", rank))
    exchanges = counting_exchanges(monkeypatch)
    mc = explore(s)
    assert mc.exhausted
    assert (mc.cluster_count, len(mc.variables())) == (clusters, variables)
    assert len(exchanges) == variables - rank
    assert is_finite_type(s) == {"finite": True, "exhausted": True,
                                 "cluster_variable_count": variables, "cluster_count": clusters}


@pytest.mark.parametrize("name", FINITE_CLASSES)
def test_is_finite_type_matches_explore(name):
    rng = random.Random(name)
    for _ in range(3):
        s = FINITE_CLASSES[name]()
        for _ in range(6):
            s = mutate_seed(s, rng.randint(1, s.matrix.n_mutable))
        assert is_finite_type(s) == explore_summary(s)
        assert is_finite_type(s)["finite"]
        for limits in LIMIT_GRID:
            assert is_finite_type(s, **limits) == explore_summary(s, **limits), limits


def symmetric_copies(rows):
    """Every matrix e P B P^T for a sign e and a permutation P, once each."""
    n = len(rows)
    return sorted({tuple(tuple(e * rows[p[i]][p[j]] for j in range(n)) for i in range(n))
                   for p in itertools.permutations(range(n)) for e in (1, -1)})


@pytest.mark.parametrize("rows, depth, clusters, variables", [
    (KRONECKER_ROWS, 12, 2 * 12 + 1, 2 * 12 + 2),  # the exchange graph is a line
    (MARKOV_ROWS, 5, 1 + 3 * (2 ** 5 - 1), 3 * 2 ** 5),  # the trivalent tree
], ids=["kronecker-depth12", "markov-depth5"])
def test_is_finite_type_counts_infinite_classes_to_a_depth(rows, depth, clusters, variables):
    expected = {"finite": False, "exhausted": False,
                "cluster_variable_count": variables, "cluster_count": clusters}
    copies = symmetric_copies(rows)
    assert len(copies) == 2 and rows in copies
    for b in copies:
        s = plain_seed(b)
        assert is_finite_type(s, max_depth=depth) == expected
        assert explore_summary(s, max_depth=depth) == expected


@st.composite
def principal_seeds(draw):
    """A random skew-symmetric principal part of rank at most 4 with up to
    two frozen rows, over a free cluster."""
    m = draw(st.integers(1, 4))
    b = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            b[i][j] = draw(st.integers(-2, 2))
            b[j][i] = -b[i][j]
    frozen = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), max_size=2))
    names = tuple(f"x{i}" for i in range(1, m + len(frozen) + 1))
    matrix = ExchangeMatrix(tuple(map(tuple, b + frozen)), len(frozen))
    return Seed(matrix, tuple(LaurentPoly.variables(names)), names)


@st.composite
def unfree_seeds(draw):
    """A principal_seeds() seed with two or more entries, one of which is
    replaced by another entry or by a Laurent monomial in the others."""
    s = draw(principal_seeds().filter(lambda s: s.matrix.d >= 2))
    d = s.matrix.d
    i = draw(st.integers(0, d - 1))
    if draw(st.booleans()):
        entry = s.cluster[draw(st.integers(0, d - 1).filter(lambda j: j != i))]
    else:
        exps = draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))
        entry = LaurentPoly.one(s.varnames)
        for j, e in enumerate(exps):
            if j != i and e:
                entry = entry * s.cluster[j] ** e
    cluster = s.cluster[:i] + (entry,) + s.cluster[i + 1:]
    return Seed(s.matrix, cluster, s.labels)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.one_of(principal_seeds(), unfree_seeds()), st.integers(1, 3))
def test_explore_matches_reference_search_on_random_seeds(s, depth):
    assert_explore_matches_reference(s, max_depth=depth)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(principal_seeds(), st.integers(1, 3))
def test_is_finite_type_matches_explore_on_random_principal_parts(s, depth):
    assert is_finite_type(s, max_depth=depth) == explore_summary(s, max_depth=depth)


# ----------------------------------------------------------------------
# mutate_seed's exchange against exchange_binomial(k).div_exact(y_k)


def assert_mutation_matches_binomial(s, k):
    """mutate_seed's new variable is exchange_binomial(k).div_exact(y_k),
    with its terms in the same order, or the exchange raises
    LaurentPhenomenonError with div_exact's message; returns the mutated
    seed, or None."""
    y = s.cluster[k - 1]
    try:
        expected = s.exchange_binomial(k).div_exact(y)
    except InexactDivisionError as exc:
        with pytest.raises(LaurentPhenomenonError) as raised:
            mutate_seed(s, k)
        assert str(raised.value) == str(LaurentPhenomenonError(s, k, str(exc)))
        return None
    t = mutate_seed(s, k)
    assert list(t.cluster[k - 1].terms.items()) == list(expected.terms.items())
    return t


@st.composite
def laurent_entry_seeds(draw):
    """A principal_seeds() seed whose entries are replaced, each with
    probability one half, by a Laurent polynomial of one or two terms with
    exponents in -2..2 and coefficients in +-1..3: monomial and polynomial
    divisors, negative exponents and non-unit coefficients."""
    s = draw(principal_seeds())
    d = s.matrix.d
    exps = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(tuple)
    entry = st.dictionaries(exps, st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=2)
    cluster = tuple(LaurentPoly(s.varnames, draw(entry)) if draw(st.booleans()) else p
                    for p in s.cluster)
    return Seed(s.matrix, cluster, s.labels)


@st.composite
def exchange_seeds(draw):
    """Rank 2 with b = +-1..4 (cubes and odd powers), Markov, a random
    skew-symmetric B with up to two frozen rows, or such a seed over
    Laurent polynomials other than the initial variables."""
    kind = draw(st.sampled_from(["rank2", "markov", "principal", "laurent"]))
    if kind == "rank2":
        b = draw(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]))
        return plain_seed(((0, b), (-b, 0)))
    if kind == "markov":
        return plain_seed(MARKOV_ROWS)
    return draw(principal_seeds() if kind == "principal" else laurent_entry_seeds())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(exchange_seeds(), st.lists(st.integers(0, 3), max_size=3))
def test_exchange_matches_the_binomial_along_mutation_paths(s, path):
    """Every direction of every seed along a random mutation path."""
    for step in [*path, None]:
        m = s.matrix.n_mutable
        mutated = [assert_mutation_matches_binomial(s, k) for k in range(1, m + 1)]
        if step is None or mutated[step % m] is None:
            break
        s = mutated[step % m]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(principal_seeds(), unfree_seeds()), st.lists(st.integers(0, 3), max_size=6))
def test_mutation_results_pass_the_public_checks(s, path):
    """mutate_matrix and _exchanged build their results without the
    constructors' checks; the public constructors accept each one.  Where
    the exchange is inexact, _exchanged takes the old variable, as explore
    takes a stored one."""
    from clusterforge import cluster

    for step in path:
        k = step % s.matrix.n_mutable + 1
        b = mutate_matrix(s.matrix, k)
        assert ExchangeMatrix(b.rows, b.n_frozen) == b
        try:
            t = mutate_seed(s, k)
        except LaurentPhenomenonError:
            t = cluster._exchanged(s, k, s.cluster[k - 1])
        assert t.matrix == b
        assert Seed(ExchangeMatrix(b.rows, b.n_frozen), t.cluster, t.labels) == t
        s = t


@CLASS_SIZES
def test_is_finite_type_mutates_each_edge_once(monkeypatch, make, clusters, variables):
    """Each edge mutates the c-vectors once, and only the edges that find a
    new seed mutate B."""
    from clusterforge import cluster

    c_mutations, b_mutations = [], []
    mutate_cvecs, mutate_rows = cluster._mutate_cvecs, cluster._mutate_rows

    def counting_mutate_cvecs(cvecs, row_k, kk):
        c_mutations.append(kk)
        return mutate_cvecs(cvecs, row_k, kk)

    def counting_mutate_rows(rows, kk):
        b_mutations.append(kk)
        return mutate_rows(rows, kk)

    s = make()
    monkeypatch.setattr(cluster, "_mutate_cvecs", counting_mutate_cvecs)
    monkeypatch.setattr(cluster, "_mutate_rows", counting_mutate_rows)
    result = is_finite_type(s)
    assert (result["cluster_count"], result["cluster_variable_count"]) == (clusters, variables)
    assert len(c_mutations) == clusters * s.matrix.n_mutable // 2
    assert len(b_mutations) == clusters - 1


def test_is_finite_type_rejects_nonpositive_limits():
    for limits in ({"max_seeds": 0}, {"max_depth": 0}):
        with pytest.raises(ClusterError, match="limits must be positive"):
            is_finite_type(plain_seed(A4_ROWS), **limits)


def test_is_finite_type_rejects_mixed_sign_c_vectors(monkeypatch):
    from clusterforge import cluster

    def broken_mutate_cvecs(cvecs, row_k, kk):
        return ((1, -1), (1, -1))  # both c-vectors mix signs

    monkeypatch.setattr(cluster, "_mutate_cvecs", broken_mutate_cvecs)
    with pytest.raises(ClusterError, match="not sign-coherent"):
        is_finite_type(plain_seed(((0, 1), (-1, 0))))
