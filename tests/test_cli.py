import json

import pytest
from click.testing import CliRunner

from clusterforge.cli import main


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


def test_phi_verify_case(runner):
    result = invoke(runner, "phi", "verify", "--case", "a2-thm61")
    assert result.exit_code == 0
    assert "PASS" in result.output


def test_phi_positivity(runner):
    result = invoke(runner, "phi", "positivity", "--rigid", "d4-example",
                    "--random-points", "1")
    assert result.exit_code == 0
    assert "all positive" in result.output


def test_verify_all_suite(runner):
    result = runner.invoke(main, ["verify", "all", "--suite", "paper-golden"])
    assert result.exit_code == 0
    assert "passed 6/6 cases" in result.output


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


def _assert_one_line_error(result, code):
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1


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


def test_exchange_matrix_bad_json_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["prepmod", "exchange-matrix", "--input", str(bad)])
    _assert_one_line_error(result, 2)
