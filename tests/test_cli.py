import copy
import hashlib
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge.cases import D4_SEQUENCES, d4_rigid_summands
from clusterforge.cli import main
from clusterforge.cluster import ExchangeMatrix, LaurentPhenomenonError, Seed, builtin_seed
from clusterforge.laurent import LaurentPoly
from clusterforge.nmatrix import D4_W0_LETTERS
from clusterforge.phi import ChiUndeterminedError, PhiError, phi_eval
from clusterforge.prepmod import ResourceCapError, build_algebra_basis, direct_sum, random_module


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_cluster_mutate_golden(runner):
    result = invoke(runner, "cluster", "mutate", "--seed", "builtin:grassmannian_2_5",
                    "--direction", "1")
    assert result.exit_code == 0
    assert "[0, 1]" in result.output
    assert "y1^-1*y2*y4 + y1^-1*y3*y5" in result.output


def test_cluster_mutate_json(runner):
    result = invoke(runner, "cluster", "mutate", "--seed", "builtin:grassmannian_2_5",
                    "--direction", "1", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    new_variable = LaurentPoly.from_json(payload["new_variable"])
    assert str(new_variable) == "y1^-1*y2*y4 + y1^-1*y3*y5"
    assert Seed.from_json(payload["seed"]).cluster[0] == new_variable


def test_cluster_explore_json_at_the_depth_cap(runner):
    """quadric(6) has principal part (A1)^4: depth 1 reaches the initial
    seed and its 4 neighbours, and the class is not exhausted."""
    result = runner.invoke(main, ["cluster", "explore", "--seed", "builtin:quadric", "--n", "6",
                                  "--max-depth", "1", "--json"])
    assert result.exit_code == 4
    payload = json.loads(result.stdout)
    assert payload["exhausted"] is False
    assert payload["cluster_count"] == 5


def test_output_is_byte_identical_across_runs(runner):
    args = ["cluster", "explore", "--seed", "builtin:quadric", "--n", "5", "--json"]
    first = runner.invoke(main, args, catch_exceptions=False).stdout
    second = runner.invoke(main, args, catch_exceptions=False).stdout
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "clusterforge.v1"
    assert payload["cluster_count"] == 8


def test_cluster_explore_dot_output(runner, tmp_path):
    dot = tmp_path / "out.dot"
    result = invoke(runner, "cluster", "explore", "--seed", "builtin:quadric",
                    "--n", "5", "--dot", str(dot))
    assert result.exit_code == 0
    assert dot.read_text().startswith("graph mutation_class {")


def test_finite_type_inconclusive_exit_code(runner, tmp_path):
    seed_file = tmp_path / "kronecker.json"
    seed_file.write_text(json.dumps({
        "d": 2, "n": 0,
        "matrix": [[0, 2], [-2, 0]],
        "cluster": [
            {"vars": ["y1", "y2"], "terms": [{"exponents": [1, 0], "coeff": "1"}]},
            {"vars": ["y1", "y2"], "terms": [{"exponents": [0, 1], "coeff": "1"}]},
        ],
        "labels": ["y1", "y2"],
    }))
    result = runner.invoke(main, ["cluster", "finite-type", "--seed", str(seed_file),
                                  "--max-depth", "8"])
    assert result.exit_code == 4


def test_finite_type_answers_from_the_matrix_where_explore_cannot_divide(runner, tmp_path):
    # The cluster (y1 + 1, y2) is a free generating set, but 1/(y1 + 1) is no
    # Laurent polynomial in y1, y2: explore's first exchange division fails,
    # while finite-type reads only B and reports A2's 5 clusters and 5
    # cluster variables.
    seed_file = tmp_path / "shifted_a2.json"
    seed_file.write_text(json.dumps(seed_with_first_term(
        {"exponents": [1, 0], "coeff": "1"}, {"exponents": [0, 0], "coeff": "1"})))
    result = runner.invoke(main, ["cluster", "finite-type", "--seed", str(seed_file), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert (payload["finite"], payload["cluster_count"], payload["cluster_variable_count"]) == (
        True, 5, 5)
    _assert_one_line_error(runner.invoke(main, ["cluster", "explore", "--seed", str(seed_file)]), 3)
    for limit in ("--max-seeds", "--max-depth"):
        result = runner.invoke(main, ["cluster", "finite-type", "--seed", str(seed_file), limit, "0"])
        _assert_one_line_error(result, 2)
        assert "limits must be positive" in result.stderr


def test_cluster_monomials(runner):
    result = invoke(runner, "cluster", "monomials", "--seed", "builtin:grassmannian_2_5",
                    "--degree-bound", "1", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len([m for m in payload["monomials"] if m["degree"] == 1]) == 10


def test_nmatrix_product_and_minor(runner):
    result = invoke(runner, "nmatrix", "product", "--type", "A2", "--word", "1,2,1")
    assert result.exit_code == 0
    assert "n_12 = t1 + t3" in result.output
    result = invoke(runner, "nmatrix", "minor", "--type", "A2", "--word", "1,2,1",
                    "--rows", "1,2", "--cols", "2,3")
    assert "t2*t3" in result.output


def test_nmatrix_quadric_check(runner):
    result = invoke(runner, "nmatrix", "quadric-check", "--rank", "4")
    assert result.exit_code == 0
    result = invoke(runner, "nmatrix", "quadric-check", "--rank", "5",
                    "--word", ",".join(map(str, (1, 2, 3, 4, 5) * 4)))
    assert result.exit_code == 0


def test_prepmod_round_trip(runner, tmp_path):
    module_file = tmp_path / "q4.json"
    result = invoke(runner, "prepmod", "injective", "--type", "D4", "--vertex", "4",
                    "--out", str(module_file))
    assert result.exit_code == 0
    result = invoke(runner, "prepmod", "efunctor", "--module", str(module_file),
                    "--word", "4", "--json")
    payload = json.loads(result.stdout)
    assert payload["dims"] == [1, 1, 2, 1]
    result = invoke(runner, "prepmod", "hom", "--m", str(module_file),
                    "--n", str(module_file))
    assert result.output.strip().endswith("2")
    result = invoke(runner, "prepmod", "ext", "--m", str(module_file),
                    "--n", str(module_file))
    assert result.output.strip().endswith("0")
    result = invoke(runner, "prepmod", "rigid", "--module", str(module_file))
    assert "True" in result.output


def test_prepmod_build_rigid(runner):
    result = invoke(runner, "prepmod", "build-rigid", "--type", "D4", "--K", "1,2,3",
                    "--word", "1,3,1,2,3,1,4,3,1,2,3,4", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["dim_NK"] == 6
    assert payload["zero_positions"] == [9, 10, 11, 12]


def test_build_rigid_with_k_every_vertex_has_no_summands(runner):
    """With K every vertex, w_0^K = w_0 and dim N_K = 0: the q_k modules are
    zero, so they are dropped like the zero modules after l(w_0^K)."""
    result = invoke(runner, "prepmod", "build-rigid", "--type", "A2", "--K", "1,2",
                    "--word", "1,2,1", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["dim_NK"] == 0
    assert payload["summands"] == []
    assert payload["zero_positions"] == [2, 3]


def test_prepmod_exchange_matrix_builtin(runner):
    result = invoke(runner, "prepmod", "exchange-matrix", "--builtin", "d4-example152",
                    "--json")
    payload = json.loads(result.stdout)
    assert payload["matrix"] == [[0, 0], [0, 0], [0, -1], [-1, 1], [0, -1], [1, 0]]
    assert payload["extended_rows"] == {"4": [1, 0]}


def test_phi_eval_and_chi(runner, tmp_path):
    module_file = tmp_path / "q4.json"
    invoke(runner, "prepmod", "injective", "--type", "D4", "--vertex", "4",
           "--out", str(module_file))
    result = invoke(runner, "phi", "eval", "--module", str(module_file),
                    "--word", "1,2,4,3,1,2,4,3,1,2,4,3")
    assert "t3*t4*t5*t6*t8*t11" in result.output
    result = invoke(runner, "phi", "chi", "--module", str(module_file),
                    "--type", "4,3,1,2,3,4", "--json")
    payload = json.loads(result.stdout)
    assert payload["value"] == 1 and payload["backend"] == "exact-enumeration"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("kind, vertex, word, golden", [
    ("D4", "4", "4,3,1", "efunctor_dagger_D4_Q4_4-3-1.json"),
    ("D5", "3", "3,2,4,3", "efunctor_dagger_D5_Q3_3-2-4-3.json"),
    ("D4", "4", "4,3", "efunctor_D4_Q4_4-3.json"),
    ("D5", "3", "3,2", "efunctor_D5_Q3_3-2.json"),
])
def test_efunctor_dagger_presentation_is_pinned(runner, tmp_path, kind, vertex, word, golden):
    """The maps of a quotient (efunctor_dagger_* goldens) or a submodule
    (efunctor_* goldens), not only their dimensions, match a recorded run."""
    module_file = tmp_path / "q.json"
    invoke(runner, "prepmod", "injective", "--type", kind, "--vertex", vertex,
           "--out", str(module_file))
    dagger = ["--dagger"] if golden.startswith("efunctor_dagger_") else []
    result = invoke(runner, "prepmod", "efunctor", "--module", str(module_file),
                    "--word", word, *dagger, "--json")
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / golden).read_text()


def test_injectives_are_pinned(runner):
    """Every injective of A1-A5, D4-D6 and E6-E8 prints as a recorded run
    (sha256 of stdout in injective_digests.json): the algebra basis and its
    relation reduction over QQ are pinned entry by entry."""
    digests = json.loads((GOLDEN / "injective_digests.json").read_text())
    assert sum(len(by_vertex) for by_vertex in digests.values()) == 51
    for kind, by_vertex in digests.items():
        for vertex, digest in by_vertex.items():
            result = invoke(runner, "prepmod", "injective", "--type", kind, "--vertex", vertex)
            assert result.exit_code == 0
            assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, (kind, vertex)


@pytest.mark.parametrize("argv, golden", [
    (["--type", "D4", "--word", "1,2,4,3,1,2,4,3,1,2,4,3"], "nmatrix_product_D4_w0.txt"),
    (["--type", "A3", "--word", "1,2,3,1,2,1", "--json"], "nmatrix_product_A3_w0.json"),
])
def test_nmatrix_product_is_pinned(runner, argv, golden):
    """Every entry of the w0 products, as printed and as JSON, matches a recorded run."""
    result = invoke(runner, "nmatrix", "product", *argv)
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / golden).read_text()


def d4_seed():
    """D4 with node 3 joined to 1, 2 and 4, over the free cluster y1..y4."""
    names = tuple(f"y{i}" for i in range(1, 5))
    rows = ((0, 0, 1, 0), (0, 0, 1, 0), (-1, -1, 0, 1), (0, 0, -1, 0))
    return Seed(ExchangeMatrix(rows, 0), tuple(LaurentPoly.variables(names)), names)


@pytest.mark.parametrize("source, golden", [
    (["--seed", "builtin:quadric", "--n", "6"], "cluster_explore_quadric6.dot"),
    (["--seed", "builtin:grassmannian_2_5"], "cluster_explore_gr25.dot"),
    (["--seed", "{dir}/d4.json"], "cluster_explore_d4.dot"),
], ids=["quadric6", "gr25", "D4"])
def test_cluster_explore_dot_is_pinned(runner, tmp_path, source, golden):
    """The exchange graph, node order and edge labels included, matches a
    recorded run."""
    (tmp_path / "d4.json").write_text(json.dumps(d4_seed().to_json()))
    dot = tmp_path / "out.dot"
    argv = [a.format(dir=tmp_path) for a in source]
    result = invoke(runner, "cluster", "explore", *argv, "--dot", str(dot))
    assert result.exit_code == 0
    assert dot.read_text() == (GOLDEN / golden).read_text()


def test_cluster_monomials_is_pinned(runner):
    """Every cluster monomial of Gr(2,5) up to degree 2, with the clusters
    it lies in, matches a recorded run."""
    result = invoke(runner, "cluster", "monomials", "--seed", "builtin:grassmannian_2_5",
                    "--degree-bound", "2", "--json")
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / "cluster_monomials_gr25_deg2.json").read_text()


def d4_pair0():
    """M + N for the first pair random_module("D4", Random(0), 3) draws."""
    rng = random.Random(0)
    return direct_sum(random_module("D4", rng, 3), random_module("D4", rng, 3))


@pytest.mark.parametrize("module, word, flags, golden", [
    (lambda: build_algebra_basis("D5").injective(3), (1, 2, 3, 4, 5) * 4, ["--json"],
     "phi_eval_D5_Q3.json"),
    (d4_pair0, D4_W0_LETTERS, [], "phi_eval_D4_pair0.txt"),
], ids=["D5-Q3", "D4-pair0"])
def test_phi_eval_is_pinned(runner, tmp_path, module, word, flags, golden):
    """phi eval prints a recorded run: every coefficient, the interpolated
    backend and its primes (2, 3, 5 for D5 Q3; 2, 3, 5, 7 for the 93-term
    D4 pair)."""
    module_file = tmp_path / "m.json"
    module_file.write_text(json.dumps(module().to_json()))
    result = invoke(runner, "phi", "eval", "--module", str(module_file),
                    "--word", ",".join(map(str, word)), *flags)
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, stdout", [
    (["cluster", "monomials", "--seed", "builtin:grassmannian_2_5", "--degree-bound", "1"],
     "golden:cluster_monomials_gr25_deg1.txt"),
    (["nmatrix", "minor", "--type", "A2", "--word", "1,2,1", "--rows", "1,2", "--cols", "2,3",
      "--json"], "golden:nmatrix_minor_A2.json"),
    (["nmatrix", "quadric-check", "--rank", "4", "--json"],
     '{\n  "holds": true,\n  "schema": "clusterforge.v1",\n  "witness": null\n}\n'),
    (["prepmod", "efunctor", "--module", "{q4}", "--word", "4"],
     "dims: [1, 1, 2, 1]\nsocle series (socle first): "
     "[[0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 0]]\n"),
    (["prepmod", "efunctor", "--module", "{q4}", "--word", "4,3", "--dagger"],
     "dims: [1, 1, 2, 1]\nsocle series (socle first): "
     "[[0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n"),
    (["prepmod", "build-rigid", "--type", "D4", "--K", "1,2,3",
      "--word", "1,3,1,2,3,1,4,3,1,2,3,4"], "golden:build_rigid_D4.txt"),
    (["prepmod", "exchange-matrix", "--builtin", "d4-example152"],
     "B(T) rows: [[0, 0], [0, 0], [0, -1], [-1, 1], [0, -1], [1, 0]]\n"
     "extension rows: {'4': [1, 0]}\n"),
    (["phi", "chi", "--module", "{q4}", "--type", "4,3,1,2,3,4"],
     "chi = 1 (exact-enumeration, primes [])\n"),
    (["phi", "verify", "--case", "a2-thm61", "--json"], "golden:phi_verify_a2-thm61.json"),
], ids=["monomials-text", "minor-json", "quadric-check-json", "efunctor-text",
        "efunctor-dagger-text", "build-rigid-text", "exchange-matrix-text", "chi-text",
        "verify-json"])
def test_cli_output_is_pinned(runner, tmp_path, argv, stdout):
    """Text and JSON modes that the other tests read only in part print a
    recorded run; a "golden:" answer names a file under tests/golden."""
    q4 = tmp_path / "q4.json"
    q4.write_text(json.dumps(build_algebra_basis("D4").injective(4).to_json()))
    result = invoke(runner, *[a.format(q4=q4) for a in argv])
    assert result.exit_code == 0
    if stdout.startswith("golden:"):
        stdout = (GOLDEN / stdout.removeprefix("golden:")).read_text()
    assert result.stdout == stdout


@pytest.mark.parametrize("argv, code, message", [
    (["cluster", "monomials", "--seed", "builtin:grassmannian_2_5", "--degree-bound", "1",
      "--max-seeds", "2"], 4, "exploration hit its limits; cannot enumerate monomials"),
    (["nmatrix", "quadric-check", "--rank", "5"], 2, "--word is required for rank != 4"),
    (["prepmod", "exchange-matrix"], 2, "provide exactly one of --input or --builtin"),
    (["prepmod", "exchange-matrix", "--builtin", "d4-example152", "--input", "{q4}"], 2,
     "provide exactly one of --input or --builtin"),
    (["nmatrix", "product", "--type", "A2", "--word", "1,2,1", "--params", "a,b"], 2,
     "--params must match --word in length"),
    (["cluster", "mutate", "--seed", "nosuch", "--direction", "1"], 2,
     "seed source 'nosuch' is neither builtin:<name> nor a file"),
], ids=["monomials-limits", "quadric-check-no-word", "exchange-matrix-neither",
        "exchange-matrix-both", "params-length", "seed-source"])
def test_cli_refusal_is_pinned(runner, tmp_path, argv, code, message):
    q4 = tmp_path / "q4.json"
    q4.write_text(json.dumps(build_algebra_basis("D4").injective(4).to_json()))
    result = runner.invoke(main, [a.format(q4=q4) for a in argv])
    _assert_one_line_error(result, code)
    assert result.stdout == ""
    assert f"Error: {message}\n" in result.stderr


def test_phi_verify_case(runner):
    result = invoke(runner, "phi", "verify", "--case", "a2-thm61")
    assert result.exit_code == 0
    assert "PASS" in result.output


def test_phi_positivity(runner):
    result = invoke(runner, "phi", "positivity", "--rigid", "d4-example",
                    "--random-points", "1")
    assert result.exit_code == 0
    assert "all positive" in result.output


def test_phi_positivity_json_values(runner):
    """At t = 1 each value counts the monomials of the matching minor, in
    the order M4, M5, M6, M7 or M7*, M8 or M8*, Q4: n_14, the 2x2 minor
    7*3 - 1, n_15, n_12, n_13, n_18 for T1.  phi_M is homogeneous of
    degree dim M, so at t = 1/2 each value is divided by 2^dim M."""
    families = {
        "T1": (["M4", "M5", "M6", "M7", "M8", "Q4"], [4, 20, 4, 3, 6, 1]),
        "T2": (["M4", "M5", "M6", "M7*", "M8", "Q4"], [4, 20, 4, 7, 6, 1]),
        "T3": (["M4", "M5", "M6", "M7", "M8*", "Q4"], [4, 20, 4, 3, 6, 1]),
        "T4": (["M4", "M5", "M6", "M7*", "M8*", "Q4"], [4, 20, 4, 7, 6, 1]),
    }
    data = d4_rigid_summands()
    dims = {label: data["by_label"][label].total_dim for label in data["labels"]}
    dims.update({label: data[label].total_dim for label in ("M7*", "M8*")})

    def run(*extra):
        result = invoke(runner, "phi", "positivity", "--rigid", "d4-example", "--json", *extra)
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["all_positive"] and all(r["all_positive"] for r in payload["results"])
        return [(r["family"], r["point"], r["values"]) for r in payload["results"]]

    assert run() == [(family, ["1"] * 12, [str(value) for value in values])
                     for family, (_, values) in families.items()]
    assert run("--point", ",".join(["1/2"] * 12)) == [
        (family, ["1/2"] * 12,
         [str(Fraction(value, 2 ** dims[label])) for label, value in zip(labels, values)])
        for family, (labels, values) in families.items()
    ]


def test_phi_positivity_computes_each_summand_once(runner, monkeypatch):
    """Eight distinct summands (M4-M8, Q4, M7*, M8*) make the four families;
    each phi is computed once and evaluated at all 10 points."""
    calls = []

    def counted(rep, letters, **kwargs):
        calls.append(rep)
        return phi_eval(rep, letters, **kwargs)

    monkeypatch.setattr("clusterforge.phi.phi_eval", counted)
    monkeypatch.setattr("clusterforge.cli.phi_eval", counted)
    result = invoke(runner, "phi", "positivity", "--rigid", "d4-example",
                    "--random-points", "10", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["all_positive"] and len(payload["results"]) == 40
    assert len(calls) == 8


def test_verify_all_suite(runner):
    result = runner.invoke(main, ["verify", "all", "--suite", "paper-golden"])
    assert result.exit_code == 0
    assert "passed 6/6 cases" in result.output


def test_verify_all_json(runner):
    result = invoke(runner, "verify", "all", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert (payload["suite"], payload["passed"], payload["total"]) == ("paper-golden", 6, 6)
    assert len(payload["cases"]) == 6 and all(case["ok"] for case in payload["cases"])


def test_unstable_interpolation_exits_5(runner, monkeypatch, tmp_path):
    """S1 + S1 over A2 with word (1, 1) counts 1 chain of type (0, 2) at
    every prime; two primes are too few to confirm any fit."""
    monkeypatch.setattr("clusterforge.phi.PRIMES", (2, 3))
    module = tmp_path / "s1s1.json"
    module.write_text(json.dumps({"type": "A2", "dims": {"1": 2, "2": 0}}))
    result = runner.invoke(main, ["phi", "eval", "--module", str(module), "--word", "1,1"])
    _assert_one_line_error(result, 5)
    assert "point counts [(2, 1), (3, 1)] never stabilized" in result.stderr


def test_invalid_inputs_exit_2(runner):
    result = runner.invoke(main, ["phi", "eval", "--module", "/no/such/file",
                                  "--word", "1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["cluster", "mutate", "--seed", "builtin:quadric",
                                  "--direction", "1"])
    assert result.exit_code == 2  # quadric needs --n
    result = runner.invoke(main, ["cluster", "mutate", "--seed",
                                  "builtin:grassmannian_2_5", "--direction", "9"])
    assert result.exit_code == 2


def test_rng_seed_is_reported(runner):
    result = runner.invoke(main, ["--rng-seed", "7", "phi", "verify",
                                  "--case", "a2-thm61"])
    assert result.exit_code == 0
    assert "rng-seed: 7" in result.stderr


def _assert_one_line_error(result, *codes):
    """Returns the error line."""
    assert result.exit_code in codes, (result.exit_code, result.exception)
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    return errors[0]


def test_resource_cap_exits_4(runner):
    # A45's preprojective algebra is infinite-dimensional: the path basis
    # never vanishes, so the build stops at its degree cap.
    result = runner.invoke(main, ["prepmod", "injective", "--type", "A45", "--vertex", "1"])
    _assert_one_line_error(result, 4)
    result = runner.invoke(main, ["prepmod", "build-rigid", "--type", "A45", "--K", "1",
                                  "--word", "1"])
    _assert_one_line_error(result, 4)


def test_positivity_bad_point_exits_2(runner):
    result = runner.invoke(main, ["phi", "positivity", "--rigid", "d4-example",
                                  "--point", "1,2,x"])
    _assert_one_line_error(result, 2)
    assert "--point" in result.stderr
    result = runner.invoke(main, ["phi", "positivity", "--rigid", "d4-example",
                                  "--random-points", "-2"])
    _assert_one_line_error(result, 2)
    assert "--random-points" in result.stderr
    for point, message in (("1,1,1", "point must supply one value per word letter"),
                           (",".join(["0"] + ["1"] * 11),
                            "positivity check requires strictly positive coordinates")):
        result = runner.invoke(main, ["phi", "positivity", "--rigid", "d4-example",
                                      "--point", point, "--random-points", "2"])
        _assert_one_line_error(result, 2)
        assert message in result.stderr


def test_module_file_error_names_the_bad_entry(runner, tmp_path):
    module = tmp_path / "m.json"
    module.write_text(json.dumps({**A2_MODULE, "maps": {"2->1": [["1/0"]]}}))
    result = runner.invoke(main, ["prepmod", "rigid", "--module", str(module)])
    _assert_one_line_error(result, 2)
    assert "map 2->1 entry '1/0' is not a rational number" in result.stderr


@pytest.mark.parametrize("kind, k_set, word, message", [
    # reduced, but its first six letters include 4, which is not in K
    ("D4", "1,2,3", "1,2,3,4,1,2,3,4,1,2,3,4", "letter 4 at position 4 is not in K"),
    ("E6", "1", ",".join(["1,2,3,4,5,6"] * 6), "not reduced: letter 6 at position 30"),
])
def test_build_rigid_rejects_bad_word_up_front(runner, kind, k_set, word, message):
    result = runner.invoke(main, ["prepmod", "build-rigid", "--type", kind, "--K", k_set,
                                  "--word", word])
    _assert_one_line_error(result, 2)
    assert message in result.stderr


def test_exchange_matrix_bad_json_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["prepmod", "exchange-matrix", "--input", str(bad)])
    _assert_one_line_error(result, 2)


@pytest.mark.parametrize("argv", [
    ["cluster", "finite-type", "--seed", "builtin:quadric", "--n", "4", "--max-seeds", "0"],
    ["cluster", "monomials", "--seed", "builtin:grassmannian_2_5", "--degree-bound", "-1"],
    ["prepmod", "hom", "--m", "{dir}/a2.json", "--n", "{dir}/d4.json"],
    ["phi", "verify", "--case", "quadric", "--n", "2"],
    ["nmatrix", "quadric-check", "--rank", "2", "--word", "1"],
    ["cluster", "explore", "--seed", "builtin:quadric", "--n", "4", "--dot", "{dir}/no/x.dot"],
    ["prepmod", "efunctor", "--module", "{dir}/d4.json", "--word", "9"],
    ["phi", "eval", "--module", "{dir}/dims_list.json", "--word", "1"],
    ["prepmod", "rigid", "--module", "{dir}/no_relation.json"],
    ["prepmod", "injective", "--type", "Dx", "--vertex", "1"],
    ["prepmod", "injective", "--type", "", "--vertex", "1"],
    ["phi", "chi", "--module", "{dir}/a2.json", "--type", "1,9"],
    ["phi", "eval", "--module", "{dir}/zero_vertex.json", "--word", "1,2,3,1,2,1"],
    ["phi", "eval", "--module", "{dir}/a2.json", "--word", "1,2,1", "--params", "a,a,b"],
    ["nmatrix", "product", "--type", "A2", "--word", "1,2,1", "--params", "a,a,b"],
    ["cluster", "mutate", "--seed", "{dir}/repeated_vars.json", "--direction", "1"],
    ["cluster", "mutate", "--seed", "{dir}/string_vars.json", "--direction", "1"],
    ["phi", "eval", "--module", "{dir}/fractional_dim.json", "--word", "1,2,1"],
    ["phi", "eval", "--module", "{dir}/bool_dim.json", "--word", "1,2,1"],
    ["phi", "eval", "--module", "{dir}/string_dim.json", "--word", "1,2,1"],
    ["cluster", "finite-type", "--seed", "{dir}/fractional_n.json"],
    ["cluster", "mutate", "--seed", "{dir}/fractional_coeff.json", "--direction", "1"],
    ["cluster", "mutate", "--seed", "{dir}/bool_exponent.json", "--direction", "1"],
    ["cluster", "mutate", "--seed", "{dir}/repeated_term.json", "--direction", "1"],
    ["cluster", "mutate", "--seed", "{dir}/zero_entry.json", "--direction", "1"],
    ["cluster", "mutate", "--seed", "{dir}/repeated_entry.json", "--direction", "1"],
    ["prepmod", "rigid", "--module", "{dir}/float_entry.json"],
    ["phi", "eval", "--module", "{dir}/bool_entry.json", "--word", "1,2,1"],
], ids=["finite-type-max-seeds", "monomials-degree", "hom-types", "verify-quadric-n",
        "quadric-check-rank", "explore-dot-path", "efunctor-letter", "eval-dims-list",
        "rigid-relation", "injective-type", "injective-empty-type", "chi-letter",
        "eval-relation-beside-zero-vertex", "eval-repeated-params", "product-repeated-params",
        "mutate-repeated-vars", "mutate-string-vars", "eval-fractional-dim", "eval-bool-dim",
        "eval-string-dim", "finite-type-fractional-n", "mutate-fractional-coeff",
        "mutate-bool-exponent", "mutate-repeated-term", "mutate-zero-entry",
        "mutate-repeated-entry", "rigid-float-entry", "eval-bool-entry"])
def test_library_error_exits_2_with_one_line(runner, tmp_path, argv):
    files = {"a2.json": A2_MODULE, "d4.json": D4_MODULE,
             "dims_list.json": {"type": "A2", "dims": [1, 0]},
             "no_relation.json": relation_violating_module("A2", 1),
             "zero_vertex.json": ZERO_VERTEX_MODULE,
             "repeated_vars.json": seed_with_vars(["x", "x"]),
             "string_vars.json": seed_with_vars("xy"),
             "fractional_dim.json": {"type": "A2", "dims": {"1": 1.7, "2": 0}},
             "bool_dim.json": {"type": "A2", "dims": {"1": True, "2": 0}},
             "string_dim.json": {"type": "A2", "dims": {"1": "1", "2": 0}},
             "fractional_n.json": {**A2_SEED, "n": 0.9},
             "fractional_coeff.json": seed_with_first_term({"exponents": [1, 0], "coeff": 1.7}),
             "bool_exponent.json": seed_with_first_term({"exponents": [True, 0], "coeff": "1"}),
             "repeated_term.json": seed_with_first_term({"exponents": [1, 0], "coeff": "1"},
                                                        {"exponents": [1, 0], "coeff": "1"}),
             "zero_entry.json": seed_with_first_term(),
             "repeated_entry.json": seed_with_first_term({"exponents": [0, 1], "coeff": "1"}),
             "float_entry.json": {**A2_MODULE, "maps": {"1->2": [[0.1]]}},
             "bool_entry.json": {**A2_MODULE, "maps": {"1->2": [["0"]], "2->1": [[True]]}}}
    for name, blob in files.items():
        (tmp_path / name).write_text(json.dumps(blob))
    result = runner.invoke(main, [a.format(dir=tmp_path) for a in argv])
    _assert_one_line_error(result, 2)


def d4_example152_data(coeff_vertices):
    summands = d4_rigid_summands()["ordered"]
    return {"summands": [m.to_json() for m in summands], "n_frozen": 4,
            "sequences": [{k: list(v) for k, v in s.items()} for s in D4_SEQUENCES],
            "coeff_vertices": coeff_vertices}


@pytest.mark.parametrize("data", [
    lambda: {"summands": [], "n_frozen": 0, "sequences": [], "coeff_vertices": [4]},
    lambda: d4_example152_data([9]),
], ids=["no-summands", "not-a-vertex"])
def test_exchange_matrix_rejects_bad_coefficient_vertices(runner, tmp_path, data):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data()))
    result = runner.invoke(main, ["prepmod", "exchange-matrix", "--input", str(path)])
    _assert_one_line_error(result, 2)
    assert "coefficient vertex" in result.stderr


def _with_sequence_entry(field, value):
    data = d4_example152_data([4])
    data["sequences"][0][field][0] = value
    return data


@pytest.mark.parametrize("data, field", [
    (lambda: {**d4_example152_data([4]), "n_frozen": 4.9}, "n_frozen"),
    (lambda: {**d4_example152_data([4]), "n_frozen": "4"}, "n_frozen"),
    (lambda: _with_sequence_entry("X", 1.7), "X entry"),
    (lambda: _with_sequence_entry("Y", True), "Y entry"),
    (lambda: d4_example152_data([4.2]), "coefficient vertex"),
    (lambda: d4_example152_data([False]), "coefficient vertex"),
], ids=["n-frozen-float", "n-frozen-string", "x-float", "y-bool", "vertex-float",
        "vertex-bool"])
def test_exchange_matrix_rejects_non_integer_fields(runner, tmp_path, data, field):
    """Each integer field of the exchange data must be a JSON integer: int()
    would truncate 4.9 to 4 and read true as 1."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data()))
    result = runner.invoke(main, ["prepmod", "exchange-matrix", "--input", str(path)])
    _assert_one_line_error(result, 2)
    assert f"{field} must be an integer" in result.stderr


def test_exchange_matrix_input_keeps_the_builtin_rows(runner, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(d4_example152_data([4])))
    result = invoke(runner, "prepmod", "exchange-matrix", "--input", str(path), "--json")
    assert json.loads(result.stdout)["extended_rows"] == {"4": [1, 0]}


def test_exchange_matrix_input_without_coefficient_vertices(runner, tmp_path):
    """Exchange data with no coeff_vertices key adds no coefficient rows: the
    extended matrix is B(T) itself."""
    data = d4_example152_data([])
    del data["coeff_vertices"]
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    result = invoke(runner, "prepmod", "exchange-matrix", "--input", str(path), "--json")
    payload = json.loads(result.stdout)
    assert payload["extended_rows"] == {}
    assert payload["extended_matrix"] == payload["matrix"]
    assert payload["matrix"] == [[0, 0], [0, 0], [0, -1], [-1, 1], [0, -1], [1, 0]]
    result = invoke(runner, "prepmod", "exchange-matrix", "--input", str(path))
    assert result.stdout == f"B(T) rows: {payload['matrix']}\n"


@pytest.mark.parametrize("exc, code", [
    (ChiUndeterminedError("point counts never stabilized"), 5),
    (ResourceCapError("no vanishing by degree 40"), 4),
    (LaurentPhenomenonError(builtin_seed("quadric", n=4), 1, "remainder y1"), 3),
    (PhiError("chi expects a module over the rationals"), 2),
    (OSError("disk full"), 2),
])
def test_exit_code_follows_the_most_specific_error_class(runner, monkeypatch, tmp_path, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("clusterforge.cli.chi", fail)
    module = tmp_path / "a2.json"
    module.write_text(json.dumps(A2_MODULE))
    result = runner.invoke(main, ["phi", "chi", "--module", str(module), "--type", "1,2"])
    _assert_one_line_error(result, code)


@pytest.mark.parametrize("first, entry, message", [
    ([{"exponents": [1, 0], "coeff": "2"}], "2*x1", "coefficient 1 is not a multiple of 2"),
    ([{"exponents": [1, 0], "coeff": "1"}, {"exponents": [0, 0], "coeff": "1"}], "x1 + 1",
     "remainder has leading term (0, 1) -> 1"),
], ids=["2*x1", "x1+1"])
@pytest.mark.parametrize("command", [["mutate", "-k", "1"], ["explore"]], ids=["mutate", "explore"])
def test_inexact_exchange_from_a_seed_file_exits_3(runner, tmp_path, first, entry, message,
                                                    command):
    """A2's exchange in direction 1 divides x2 + 1 by the first cluster
    entry: by 2*x1 it fails on a coefficient, by x1 + 1 on a remainder.
    Both commands report the library's error, the cluster and the matrix."""
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({
        "n": 0, "matrix": [[0, 1], [-1, 0]],
        "cluster": [{"vars": ["x1", "x2"], "terms": first},
                    {"vars": ["x1", "x2"], "terms": [{"exponents": [0, 1], "coeff": "1"}]}],
    }))
    result = runner.invoke(main, ["cluster", *command, "--seed", str(seed_file)])
    _assert_one_line_error(result, 3)
    assert result.stdout == ""
    assert result.stderr == (
        "rng-seed: 0\n"
        f"Error: inexact exchange division in direction 1: inexact division: {message}\n"
        f"seed cluster: ['{entry}', 'x2']\n"
        "matrix rows: ((0, 1), (-1, 0))\n"
    )


def test_errors_outside_the_table_are_not_reported_as_input_errors(runner, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr("clusterforge.cli.chi", fail)
    module = tmp_path / "a2.json"
    module.write_text(json.dumps(A2_MODULE))
    result = runner.invoke(main, ["phi", "chi", "--module", str(module), "--type", "1,2"])
    assert result.exit_code == 1 and isinstance(result.exception, ValueError)


# Valid inputs that the property tests below break in one place each.
A2_MODULE = {"type": "A2", "dims": {"1": 1, "2": 1}, "maps": {"1->2": [["0"]], "2->1": [["1"]]}}
A3_MODULE = {"type": "A3", "dims": {"1": 0, "2": 1, "3": 1},
             "maps": {"3->2": [["1"]], "2->3": [["0"]]}}
D4_MODULE = {"type": "D4", "dims": {"3": 1}}
# The relation fails at vertex 2 ((1->2)(2->1) != 0), beside the empty vertex 3.
ZERO_VERTEX_MODULE = {"type": "A3", "dims": {"1": 1, "2": 2, "3": 0},
                      "maps": {"1->2": [["1"], ["0"]], "2->1": [["0", "1"]]}}
A2_SEED = {
    "d": 2, "n": 0,
    "matrix": [[0, 1], [-1, 0]],
    "cluster": [
        {"vars": ["y1", "y2"], "terms": [{"exponents": [1, 0], "coeff": "1"}]},
        {"vars": ["y1", "y2"], "terms": [{"exponents": [0, 1], "coeff": "1"}]},
    ],
    "labels": ["y1", "y2"],
}
ARROWS = {"A2": ["1->2", "2->1"], "A3": ["1->2", "2->1", "2->3", "3->2"],
          "D4": ["1->3", "3->1", "2->3", "3->2", "3->4", "4->3"]}
NOT_A_LIST = [None, "x", 3, {}]


def seed_with_vars(names):
    """A2_SEED with every cluster variable written over the given names."""
    blob = copy.deepcopy(A2_SEED)
    for poly in blob["cluster"]:
        poly["vars"] = names
    return blob


def seed_with_first_term(*terms):
    """A2_SEED with the first cluster variable's terms replaced."""
    blob = copy.deepcopy(A2_SEED)
    blob["cluster"][0]["terms"] = list(terms)
    return blob


def relation_violating_module(kind, scalar):
    """Every space 1-dimensional and every arrow a nonzero scalar: at the
    leaf vertex 1 the relation reads scalar^2 = 0, so it fails there."""
    vertices = {v for arrow in ARROWS[kind] for v in arrow.split("->")}
    return {"type": kind, "dims": {v: 1 for v in vertices},
            "maps": {a: [[str(scalar)]] for a in ARROWS[kind]}}


@st.composite
def malformed_modules(draw):
    blob = copy.deepcopy(draw(st.sampled_from([A2_MODULE, A3_MODULE, D4_MODULE])))
    kind = blob["type"]
    arrow = draw(st.sampled_from(ARROWS[kind]))
    fault = draw(st.sampled_from(["drop", "swap", "vertex", "arrow", "shape", "relation"]))
    if fault == "drop":
        del blob[draw(st.sampled_from(["type", "dims"]))]
    elif fault == "swap":
        target = draw(st.sampled_from(["blob", "type", "dims", "maps", "rows", "row"]))
        if target == "blob":
            blob = draw(st.sampled_from([[blob], "x", 3, None]))
        elif target == "type":
            blob["type"] = draw(st.sampled_from([4, None, [kind], {}, "", "Dx", "Q3"]))
        elif target in ("dims", "maps"):
            blob[target] = draw(st.sampled_from([[1], "x", 3, None]))
        elif target == "rows":
            blob.setdefault("maps", {})[arrow] = draw(st.sampled_from(["x", 3, {}]))
        else:
            blob.setdefault("maps", {})[arrow] = [draw(st.sampled_from(NOT_A_LIST))]
    elif fault == "vertex":
        blob["dims"][draw(st.sampled_from(["0", "9", "x", "1 "]))] = 1
    elif fault == "arrow":
        blob.setdefault("maps", {})[draw(st.sampled_from(["1 ->2", "9->1", "1->1", "4->1"]))] = []
    elif fault == "shape":
        source, target = arrow.split("->")
        rows = blob["dims"].get(target, 0) + 1
        blob.setdefault("maps", {})[arrow] = [["0"] * blob["dims"].get(source, 0)] * rows
    else:
        blob = relation_violating_module(kind, draw(st.integers(1, 5) | st.integers(-5, -1)))
    return blob


@st.composite
def malformed_seeds(draw):
    """A2_SEED with one fault, and the field that the error must name."""
    blob = copy.deepcopy(A2_SEED)
    fault = draw(st.sampled_from(["drop", "swap", "shape", "skew", "bool", "d", "labels", "vars",
                                  "exponents", "entry", "term", "coeff"]))
    field = fault
    if fault == "drop":
        field = draw(st.sampled_from(["matrix", "n", "cluster"]))
        del blob[field]
    elif fault == "swap":
        field = draw(st.sampled_from(["object", "matrix", "n", "cluster"]))
        if field == "object":
            blob = draw(st.sampled_from([[blob], "x", 3, None]))
        elif field == "matrix":
            blob["matrix"] = draw(st.sampled_from(["x", 3, None, {}, [0, 1], [["0", "1"], ["-1", "0"]]]))
        elif field == "n":
            blob["n"] = draw(st.sampled_from(["x", None, [], {}, -1, 3]))
        else:
            blob["cluster"] = draw(st.sampled_from(["x", 3, None, {}, []]))
    elif fault == "shape":
        field = draw(st.sampled_from(["matrix", "cluster"]))
        del blob[field][-1]
    elif fault in ("skew", "bool"):
        field = "matrix"
        blob["matrix"][0][1] = True if fault == "bool" else 1 + draw(st.integers(1, 3))
    elif fault == "d":
        blob["d"] = draw(st.sampled_from([7, 1, 3, True, "2", None]))
    elif fault == "labels":
        blob["labels"] = draw(st.sampled_from([[1, 2], ["y1"], ["y1", None], "ab", []]))
    elif fault == "vars":
        blob["cluster"][0]["vars"] = ["z1", "z2"]
    elif fault == "entry":
        field = "cluster entry 1"
        blob["cluster"][1] = draw(st.sampled_from([1, "x", None, [], {"vars": ["y1", "y2"]}]))
    elif fault == "term":
        field = "term 0"
        blob["cluster"][1]["terms"] = [draw(st.sampled_from([1, "x", None, {"coeff": "1"}]))]
    elif fault == "coeff":
        blob["cluster"][1]["terms"][0]["coeff"] = draw(st.sampled_from([1.5, True, "x", None]))
        field = "term 0"
    else:
        blob["cluster"][0]["terms"][0]["exponents"] = draw(st.sampled_from([["1", "0"], [1], 1]))
    return blob, field


@st.composite
def malformed_int_lists(draw):
    tokens = draw(st.lists(st.integers(1, 4).map(str), max_size=4))
    bad = draw(st.sampled_from(["x", "1.5", "1/2", "0x1", "1e3", "one", "[1]", "1;2"]))
    tokens.insert(draw(st.integers(0, len(tokens))), bad)
    return ",".join(tokens)


PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None)


@PROPERTY_SETTINGS
@given(malformed_modules())
def test_malformed_module_files_exit_with_one_line(blob):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        bad, good, exchange = (Path(tmp) / name for name in ("bad.json", "good.json", "x.json"))
        bad.write_text(json.dumps(blob))
        good.write_text(json.dumps(A2_MODULE))
        exchange.write_text(json.dumps({"summands": [blob], "n_frozen": 1, "sequences": []}))
        for argv in (
            ["phi", "eval", "--module", bad, "--word", "1,2"],
            ["phi", "chi", "--module", bad, "--type", "1"],
            ["prepmod", "efunctor", "--module", bad, "--word", "1"],
            ["prepmod", "hom", "--m", bad, "--n", good],
            ["prepmod", "ext", "--m", good, "--n", bad],
            ["prepmod", "rigid", "--module", bad],
            ["prepmod", "exchange-matrix", "--input", exchange],
        ):
            _assert_one_line_error(runner.invoke(main, [str(a) for a in argv]), 2, 3, 4, 5)


@PROPERTY_SETTINGS
@given(malformed_seeds())
def test_malformed_seed_files_exit_with_one_line(case):
    blob, field = case
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        seed = Path(tmp) / "seed.json"
        seed.write_text(json.dumps(blob))
        for argv in (
            ["cluster", "mutate", "--seed", str(seed), "--direction", "1"],
            ["cluster", "explore", "--seed", str(seed), "--max-depth", "3"],
            ["cluster", "finite-type", "--seed", str(seed), "--max-depth", "3"],
        ):
            line = _assert_one_line_error(runner.invoke(main, argv), 2)
            # the message names the field, not a Python internal such as 'int'
            assert re.search(rf"\b{field}\b", line.split(": ", 2)[-1]), (field, line)


@PROPERTY_SETTINGS
@given(malformed_int_lists())
def test_malformed_integer_lists_exit_with_one_line(text):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        module = Path(tmp) / "a2.json"
        module.write_text(json.dumps(A2_MODULE))
        for argv in (
            ["phi", "eval", "--module", str(module), "--word", text],
            ["phi", "chi", "--module", str(module), "--type", text],
            ["prepmod", "efunctor", "--module", str(module), "--word", text],
            ["prepmod", "build-rigid", "--type", "A2", "--K", text, "--word", "1,2,1"],
            ["nmatrix", "product", "--type", "A2", "--word", text],
        ):
            _assert_one_line_error(runner.invoke(main, argv), 2, 3, 4, 5)

