"""Acceptance suite: every criterion runs at its stated tolerance (exact
structural equality throughout) and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from clusterforge.cases import (
    D4_BT_ROWS,
    D4_SEQUENCES,
    d4_nonrigid_module,
    d4_rigid_summands,
    q4_submodules,
)
from clusterforge.cluster import (
    ExchangeMatrix,
    builtin_seed,
    explore,
    mutate_matrix,
    mutate_seed,
    quadric_relation_shape,
)
from clusterforge.laurent import LaurentPoly, product_of
from clusterforge.nmatrix import (
    A2_W0_LETTERS,
    A3_W0_LETTERS,
    D4_W0_LETTERS,
    Word,
    isotropy_defect,
    minor,
    product,
)
from clusterforge.phi import EXACT, INTERPOLATED, FlagCounter, phi_eval, verify_multiplication
from clusterforge.prepmod import (
    D4_RIGID_WORD,
    PreprojectiveAlgebra,
    build_algebra_basis,
    build_complete_rigid,
    check_relation,
    direct_sum,
    dynkin_quiver,
    exchange_matrix_from_sequences,
    ext1_dim,
    functor_E,
    functor_E_dagger,
    hom_dim,
    is_isomorphic,
    is_rigid,
    random_module,
    simple_rep,
    socle_series,
    zero_rep,
)

GR25_MU1 = ((0, 1), (-1, 0), (1, -1), (-1, 0), (1, 0), (0, -1), (0, 1))


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_seconds else "FAIL"
    print(
        f"[acceptance] criterion {number:2d} {status}  {description} "
        f"({elapsed:.3f}s, budget {budget_seconds:g}s)"
    )
    assert elapsed <= budget_seconds, f"runtime {elapsed:.3f}s exceeded {budget_seconds}s"


def test_criterion_01_matrix_mutation_golden():
    seed = builtin_seed("grassmannian_2_5")
    y = LaurentPoly.variables(seed.varnames)
    expected_var = (y[1] * y[3] + y[2] * y[4]).div_exact(y[0])
    repetitions = 20
    with criterion(1, "Gr(2,5) matrix mutation and exchange golden", 0.001 * repetitions):
        for _ in range(repetitions):
            assert mutate_matrix(seed.matrix, 1).rows == GR25_MU1
            mutated = mutate_seed(seed, 1)
            assert mutated.cluster[0] == expected_var


def test_criterion_02_gr25_exploration():
    with criterion(2, "Gr(2,5) exploration exhausts with 5 clusters / 5 variables", 1.0):
        mc = explore(builtin_seed("grassmannian_2_5"))
        assert mc.exhausted
        assert mc.cluster_count == 5
        assert len(mc.variables()) == 5


def test_criterion_03_quadric_exploration():
    for n in (4, 5, 6):
        mc = explore(builtin_seed("quadric", n=n))
        assert mc.exhausted and mc.cluster_count == 2 ** (n - 2)
    with criterion(3, "quadric seeds explore to 2^(n-2) clusters with the displayed relations", 10.0):
        n = 7
        seed = builtin_seed("quadric", n=n)
        mc = explore(seed)
        assert mc.exhausted
        assert mc.cluster_count == 2 ** (n - 2)
        # no variable outside the 2(n-2) exchangeable-pair images ever appears
        assert len(mc.variables()) == 2 * (n - 2)
        varnames = seed.varnames
        for key in mc.order:
            s = mc.seeds[key]
            for j in range(1, s.matrix.n_mutable + 1):
                shape_a, shape_b = quadric_relation_shape(n, j + 1)
                expected = product_of(
                    (LaurentPoly.variable(v, varnames) for v in shape_a), varnames
                ) + product_of(
                    (LaurentPoly.variable(v, varnames) for v in shape_b), varnames
                )
                assert s.exchange_binomial(j) == expected


def test_criterion_04_d4_exchange_matrices():
    data = d4_rigid_summands()
    with criterion(4, "Example 15.2 exchange matrix and coefficient-row extension", 1.0):
        out = exchange_matrix_from_sequences(
            data["ordered"], 4, list(D4_SEQUENCES), coeff_vertices=(4,)
        )
        assert out["matrix"].rows == D4_BT_ROWS
        assert out["extended_rows"] == {4: (1, 0)}
        s4 = simple_rep(dynkin_quiver("D4"), 4)
        by_label = dict(zip(data["labels"], data["ordered"]))
        assert hom_dim(s4, by_label["M5"]) == 2
        assert hom_dim(s4, by_label["Q4"]) == 1
        assert hom_dim(s4, direct_sum(by_label["M4"], by_label["M6"])) == 2


def test_criterion_05_injective_filtrations():
    with criterion(5, "D4 socle filtrations of Q3 and Q4 match layer by layer", 1.0):
        algebra = PreprojectiveAlgebra(dynkin_quiver("D4"))  # fresh, uncached
        q4 = algebra.injective(4)
        q3 = algebra.injective(3)
        assert socle_series(q4) == (
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (1, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )
        assert socle_series(q3) == (
            (0, 0, 1, 0),
            (1, 1, 0, 1),
            (0, 0, 2, 0),
            (1, 1, 0, 1),
            (0, 0, 1, 0),
        )


def test_criterion_06_functor_relations():
    with criterion(6, "idempotence, commutation and braid relations on 20 random modules", 30.0):
        rng = random.Random(0)
        modules = [random_module("D4", rng, 8) for _ in range(10)]
        modules += [random_module("A3", rng, 8) for _ in range(10)]
        for m in modules:
            quiver = m.quiver
            for f in (functor_E, functor_E_dagger):
                for i in quiver.vertices:
                    assert is_isomorphic(f(f(m, i), i), f(m, i))
                for i, j in itertools.combinations(quiver.vertices, 2):
                    if (min(i, j), max(i, j)) in quiver.edges:
                        a = f(f(f(m, i), j), i)
                        b = f(f(f(m, j), i), j)
                    else:
                        a = f(f(m, i), j)
                        b = f(f(m, j), i)
                    assert is_isomorphic(a, b)


def test_criterion_07_complete_rigid_construction():
    with criterion(7, "Example 13.3 complete rigid module with six displayed summands", 5.0):
        res = build_complete_rigid("D4", (1, 2, 3), D4_RIGID_WORD)
        assert res["dim_NK"] == 6
        assert len(res["summands"]) == 6
        assert res["zero_positions"] == [9, 10, 11, 12]
        by_label = dict(zip(res["labels"], res["summands"]))
        expected = {
            "M4": ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)),
            "M5": ((0, 0, 0, 2), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 0)),
            "M6": ((0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)),
            "M7": ((0, 0, 0, 1),),
            "M8": ((0, 0, 0, 1), (0, 0, 1, 0)),
            "Q4": ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        }
        for label, series in expected.items():
            assert socle_series(by_label[label]) == series, label
        for a, b in itertools.combinations_with_replacement(res["summands"], 2):
            assert ext1_dim(a, b) == 0


def test_criterion_08_phi_golden_tests():
    with criterion(8, "phi goldens: Example 5.2, Exercise 5.5, Exercise 5.4", 60.0):
        counter = FlagCounter()
        backends = []

        # Example 5.2 over the word (1,2,1)
        a2 = build_algebra_basis("A2")
        quiver2 = dynkin_quiver("A2")
        names = ("t1", "t2", "t3")
        t1, t2, t3 = (LaurentPoly.variable(v, names) for v in names)
        golden = [
            (simple_rep(quiver2, 1), t1 + t3),
            (simple_rep(quiver2, 2), t2),
            (a2.injective(1), t1 * t2),
            (a2.injective(2), t2 * t3),
        ]
        for rep, expected in golden:
            report = phi_eval(rep, A2_W0_LETTERS, counter=counter)
            backends.append(report.backend)
            assert report.poly == expected

        # Exercise 5.5: the eight first-row identities
        x = product("D4", Word.with_default_params(D4_W0_LETTERS))
        submodules = q4_submodules()
        values = []
        for rep in submodules:
            report = phi_eval(rep, D4_W0_LETTERS, counter=counter)
            backends.append(report.backend)
            values.append(report.poly)
        assert values == [x.entry(1, j) for j in range(1, 9)]

        # Exercise 5.4: submodules of Q2 in A3 vs rows-(1,2) minors
        a3 = build_algebra_basis("A3")
        quiver3 = dynkin_quiver("A3")
        q2 = a3.injective(2)
        n = functor_E(q2, 2)
        submodules3 = [
            zero_rep(quiver3),
            simple_rep(quiver3, 2),
            functor_E(n, 3),
            functor_E(n, 1),
            n,
            q2,
        ]
        xa = product("A3", Word.with_default_params(A3_W0_LETTERS))
        minors = {c: minor(xa, (1, 2), c) for c in itertools.combinations((1, 2, 3, 4), 2)}
        hits = []
        for rep in submodules3:
            report = phi_eval(rep, A3_W0_LETTERS, counter=counter)
            backends.append(report.backend)
            matches = tuple(c for c, mv in minors.items() if mv == report.poly)
            assert len(matches) == 1
            hits.append(matches[0])
        assert len(set(hits)) == len(hits)

        # every chi resolved through the exact backend or a stable interpolation
        assert all(b in (EXACT, INTERPOLATED) for b in backends)


def test_criterion_09_multiplication_identities():
    with criterion(9, "product rule on 20 random pairs plus both exchange examples", 30.0):
        counter = FlagCounter()
        rng = random.Random(0)
        for _ in range(14):
            m = random_module("A3", rng, 4)
            n = random_module("A3", rng, 4)
            report = verify_multiplication(m, n, A3_W0_LETTERS, counter=counter)
            assert report["product_rule"]["holds"]
        for _ in range(6):
            m = random_module("D4", rng, 3)
            n = random_module("D4", rng, 3)
            report = verify_multiplication(m, n, D4_W0_LETTERS, counter=counter)
            assert report["product_rule"]["holds"]

        a2 = build_algebra_basis("A2")
        quiver2 = dynkin_quiver("A2")
        report = verify_multiplication(
            simple_rep(quiver2, 1),
            simple_rep(quiver2, 2),
            A2_W0_LETTERS,
            middle_terms=(a2.injective(1), a2.injective(2)),
            counter=counter,
        )
        assert report["exchange_rule"]["holds"]

        a3 = build_algebra_basis("A3")
        quiver3 = dynkin_quiver("A3")
        q2 = a3.injective(2)
        n = functor_E(q2, 2)
        report = verify_multiplication(
            simple_rep(quiver3, 2),
            n,
            A3_W0_LETTERS,
            middle_terms=(q2, direct_sum(functor_E(n, 3), functor_E(n, 1))),
            counter=counter,
        )
        assert report["exchange_rule"]["holds"]


def test_criterion_10_nonrigid_witness():
    with criterion(10, "the one-parameter-family module reports is_rigid = False", 1.0):
        m = d4_nonrigid_module()
        assert check_relation(m) == (True, None)
        assert socle_series(m) == ((0, 0, 1, 0), (1, 1, 0, 1), (0, 0, 1, 0))
        assert not is_rigid(m)


def test_criterion_11_positivity_instantiation():
    with criterion(11, "positivity of all four rigid families at 10 random points", 10.0):
        counter = FlagCounter()
        data = d4_rigid_summands()
        base = dict(zip(data["labels"], data["ordered"]))
        distinct = {
            "M4": base["M4"], "M5": base["M5"], "M6": base["M6"],
            "M7": base["M7"], "M8": base["M8"], "Q4": base["Q4"],
            "M7*": data["M7*"], "M8*": data["M8*"],
        }
        polys = {
            name: phi_eval(rep, D4_W0_LETTERS, counter=counter).poly
            for name, rep in distinct.items()
        }
        families = [
            ("M4", "M5", "M6", "M7", "M8", "Q4"),
            ("M4", "M5", "M6", "M7*", "M8", "Q4"),
            ("M4", "M5", "M6", "M7", "M8*", "Q4"),
            ("M4", "M5", "M6", "M7*", "M8*", "Q4"),
        ]
        rng = random.Random(0)
        params = polys["Q4"].varnames
        for _ in range(10):
            point = {
                v: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for v in params
            }
            for family in families:
                for name in family:
                    assert polys[name].evaluate(point) > 0
        # the quadratic relation holds identically on the symbolic first row
        x = product("D4", Word.with_default_params(D4_W0_LETTERS))
        assert isotropy_defect(x.row(1)).is_zero


def test_criterion_12_property_suites():
    with criterion(12, "randomized property suites at >= 100 instances each", 60.0):
        rng = random.Random(0)

        # mutation involution and skew-symmetry on random exchange matrices
        for _ in range(100):
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
            b = ExchangeMatrix(tuple(rows), extra)
            k = rng.randint(1, m)
            mutated = mutate_matrix(b, k)  # constructor re-validates skew-symmetry
            assert mutate_matrix(mutated, k).rows == b.rows

        # seed-level involution over every edge of real mutation classes
        seed_instances = 0
        for name, n in (("quadric", 6), ("quadric", 5), ("grassmannian_2_5", None),
                        ("d4_flag_extended", None)):
            mc = explore(builtin_seed(name, n=n))
            for key in mc.order:
                s = mc.seeds[key]
                for k in range(1, s.matrix.n_mutable + 1):
                    t = mutate_seed(s, k)
                    back = mutate_seed(t, k)
                    assert back.cluster == s.cluster
                    assert back.matrix.rows == s.matrix.rows
                    seed_instances += 1
        assert seed_instances >= 100

        # Laurent ring axioms and exact-division round trips
        names = ("x", "y", "z")

        def random_poly():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = tuple(rng.randint(-3, 3) for _ in names)
                terms[exps] = rng.randint(-9, 9)
            return LaurentPoly(names, terms)

        for _ in range(100):
            p, q, r = random_poly(), random_poly(), random_poly()
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            if not q.is_zero:
                assert (p * q).div_exact(q) == p

        # Ext symmetry and Hom additivity on random modules (per quiver)
        pools = {
            "A3": [random_module("A3", rng, 6) for _ in range(14)],
            "D4": [random_module("D4", rng, 6) for _ in range(14)],
        }
        pairs = 0
        for pool in pools.values():
            for m, n in itertools.combinations(pool, 2):
                if pairs >= 100:
                    break
                assert ext1_dim(m, n) == ext1_dim(n, m)
                pairs += 1
        assert pairs >= 100
        triples = 0
        while triples < 100:
            pool = pools["A3"] if triples % 2 else pools["D4"]
            a, b, c = rng.sample(pool, 3)
            assert hom_dim(direct_sum(a, b), c) == hom_dim(a, c) + hom_dim(b, c)
            triples += 1
