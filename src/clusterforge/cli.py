"""Command-line front end.

Exit codes: 0 success, 2 invalid input, 3 verification failure, 4 resource
limit (exploration did not exhaust), 5 undetermined Euler characteristic.
EXIT_CODES below is the one place that maps a library error class to its
code; the main group applies it to whatever a subcommand raises, so command
bodies call the library directly and catch nothing.

Every subcommand has a --json mode with a versioned schema; output is
deterministic for a fixed --rng-seed (printed on stderr, default 0).
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import cases as case_registry
from .cluster import (
    ClusterError,
    LaurentPhenomenonError,
    Seed,
    builtin_seed,
    cluster_monomials,
    explore,
    is_finite_type,
    mutate_seed,
    mutation_class_to_dot,
)
from .laurent import LaurentError
from .nmatrix import D4_W0_LETTERS, NMatrixError, Word, minor, product, verify_quadric_relation
from .phi import ChiUndeterminedError, FlagCounter, PhiError, chi, phi_eval
from .prepmod import (
    PrepmodError,
    QuiverRep,
    ResourceCapError,
    build_algebra_basis,
    build_complete_rigid,
    exchange_matrix_from_sequences,
    ext1_dim,
    functor_E_word,
    hom_dim,
    is_rigid,
    socle_series,
)

SCHEMA = "clusterforge.v1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_RESOURCE = 4
EXIT_UNDETERMINED = 5


# A subclass's code beats its base's: the lookup walks the raised error's MRO.
EXIT_CODES: dict[type[Exception], int] = {
    ChiUndeterminedError: EXIT_UNDETERMINED,
    ResourceCapError: EXIT_RESOURCE,
    LaurentPhenomenonError: EXIT_VERIFY_FAILED,
    ClusterError: EXIT_INVALID,
    LaurentError: EXIT_INVALID,
    NMatrixError: EXIT_INVALID,
    PrepmodError: EXIT_INVALID,
    PhiError: EXIT_INVALID,
    OSError: EXIT_INVALID,  # reading or writing a path named on the command line
}


class CliError(click.ClickException):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.exit_code = code


class _ExitCodeGroup(click.Group):
    """Reports a library error from any subcommand as one `Error:` line and
    exits with its EXIT_CODES code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            code = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
            raise CliError(str(exc), code) from exc


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    click.echo(json.dumps(payload, sort_keys=True, indent=2, default=str))


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise CliError(f"expected a comma-separated integer list, got {text!r}", EXIT_INVALID) from exc


def _json_int(value, field: str) -> int:
    """A JSON integer as given; a float, a bool or a string raises ValueError
    rather than being truncated or read as 0/1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _load_seed(source: str, n: int | None) -> Seed:
    if source.startswith("builtin:"):
        return builtin_seed(source.split(":", 1)[1], n=n)
    path = Path(source)
    if not path.is_file():
        raise CliError(f"seed source {source!r} is neither builtin:<name> nor a file", EXIT_INVALID)
    try:
        return Seed.from_json(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError, ArithmeticError, ClusterError, LaurentError) as exc:
        raise CliError(f"cannot parse seed file {source}: {exc}", EXIT_INVALID) from exc


def _load_module(path: str) -> QuiverRep:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"module file {path!r} not found", EXIT_INVALID)
    try:
        blob = json.loads(p.read_text())
        if "module" in blob and "type" not in blob:
            blob = blob["module"]
        return QuiverRep.from_json(blob)
    except (ValueError, KeyError, TypeError, ArithmeticError, PrepmodError) as exc:
        raise CliError(f"cannot parse module file {path}: {exc}", EXIT_INVALID) from exc


def _word_from_options(word: str, params: str | None) -> Word:
    letters = _parse_ints(word)
    if params:
        names = _parse_names(params)
        if len(names) != len(letters):
            raise CliError("--params must match --word in length", EXIT_INVALID)
        return Word(letters, names)
    return Word.with_default_params(letters)


@click.group(cls=_ExitCodeGroup)
@click.option("--rng-seed", default=0, show_default=True, help="seed for randomized checks")
@click.pass_context
def main(ctx, rng_seed):
    """Exact cluster-algebra and preprojective-algebra computations."""
    ctx.ensure_object(dict)
    ctx.obj["rng_seed"] = rng_seed
    click.echo(f"rng-seed: {rng_seed}", err=True)


# ----------------------------------------------------------------------
# cluster


@main.group()
def cluster():
    """Seed mutation and mutation-class exploration."""


@cluster.command("mutate")
@click.option("--seed", "seed_source", required=True, help="builtin:<name> or a seed JSON file")
@click.option("--n", type=int, default=None, help="rank parameter for builtin:quadric")
@click.option("--direction", "-k", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def cluster_mutate(seed_source, n, direction, as_json):
    """Mutate a seed in one direction; prints the new matrix and variable."""
    t = mutate_seed(_load_seed(seed_source, n), direction)
    if as_json:
        _emit_json({"seed": t.to_json(), "new_variable": t.cluster[direction - 1].to_json()})
        return
    click.echo(f"mu_{direction}(B) rows:")
    for row in t.matrix.rows:
        click.echo(f"  {list(row)}")
    click.echo(f"new variable y_{direction}* = {t.cluster[direction - 1]}")


@cluster.command("explore")
@click.option("--seed", "seed_source", required=True)
@click.option("--n", type=int, default=None)
@click.option("--max-seeds", type=int, default=100000, show_default=True)
@click.option("--max-depth", type=int, default=64, show_default=True)
@click.option("--dot", "dot_path", type=click.Path(), default=None, help="write the exchange graph in DOT format")
@click.option("--json", "as_json", is_flag=True)
def cluster_explore(seed_source, n, max_seeds, max_depth, dot_path, as_json):
    """Breadth-first closure of a seed under mutation."""
    mc = explore(_load_seed(seed_source, n), max_seeds=max_seeds, max_depth=max_depth)
    if dot_path:
        Path(dot_path).write_text(mutation_class_to_dot(mc))
    payload = {
        "exhausted": mc.exhausted,
        "cluster_count": mc.cluster_count,
        "cluster_variable_count": len(mc.variables()),
    }
    if as_json:
        _emit_json(payload)
    else:
        for k, v in payload.items():
            click.echo(f"{k}: {v}")
    if not mc.exhausted:
        sys.exit(EXIT_RESOURCE)


@cluster.command("finite-type")
@click.option("--seed", "seed_source", required=True)
@click.option("--n", type=int, default=None)
@click.option("--max-seeds", type=int, default=100000, show_default=True)
@click.option("--max-depth", type=int, default=64, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cluster_finite_type(seed_source, n, max_seeds, max_depth, as_json):
    """Finite-type detection from the exchange matrix, under limits."""
    result = is_finite_type(_load_seed(seed_source, n), max_seeds=max_seeds, max_depth=max_depth)
    if as_json:
        _emit_json(result)
    else:
        for k, v in result.items():
            click.echo(f"{k}: {v}")
    if not result["exhausted"]:
        sys.exit(EXIT_RESOURCE)


@cluster.command("monomials")
@click.option("--seed", "seed_source", required=True)
@click.option("--n", type=int, default=None)
@click.option("--degree-bound", type=int, required=True)
@click.option("--max-seeds", type=int, default=100000, show_default=True)
@click.option("--max-depth", type=int, default=64, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cluster_monomials_cmd(seed_source, n, degree_bound, max_seeds, max_depth, as_json):
    """Cluster monomials up to a total-degree bound."""
    mc = explore(_load_seed(seed_source, n), max_seeds=max_seeds, max_depth=max_depth)
    if not mc.exhausted:
        raise CliError("exploration hit its limits; cannot enumerate monomials", EXIT_RESOURCE)
    records = cluster_monomials(mc, degree_bound)
    if as_json:
        _emit_json(
            {
                "monomials": [
                    {
                        "polynomial": r["monomial"].to_json(),
                        "degree": r["degree"],
                        "clusters": r["clusters"],
                    }
                    for r in records
                ]
            }
        )
    else:
        for r in records:
            click.echo(f"deg {r['degree']}: {r['monomial']} (clusters {r['clusters']})")


# ----------------------------------------------------------------------
# nmatrix


@main.group()
def nmatrix():
    """Unipotent-group matrix realizations and minors."""


@nmatrix.command("product")
@click.option("--type", "gtype", required=True, help="A<n> or D<n>")
@click.option("--word", required=True, help="comma-separated generator indices")
@click.option("--params", default=None, help="comma-separated parameter names")
@click.option("--json", "as_json", is_flag=True)
def nmatrix_product(gtype, word, params, as_json):
    """Symbolic product of one-parameter generators along a word."""
    x = product(gtype, _word_from_options(word, params))
    if as_json:
        _emit_json({"matrix": x.to_json()})
        return
    for i in range(1, x.size + 1):
        for j in range(i + 1, x.size + 1):
            entry = x.entry(i, j)
            if not entry.is_zero:
                click.echo(f"n_{i}{j} = {entry}")


@nmatrix.command("minor")
@click.option("--type", "gtype", required=True)
@click.option("--word", required=True)
@click.option("--params", default=None)
@click.option("--rows", required=True, help="comma-separated 1-based row indices")
@click.option("--cols", required=True, help="comma-separated 1-based column indices")
@click.option("--json", "as_json", is_flag=True)
def nmatrix_minor(gtype, word, params, rows, cols, as_json):
    """Exact minor of a generator product."""
    x = product(gtype, _word_from_options(word, params))
    value = minor(x, _parse_ints(rows), _parse_ints(cols))
    if as_json:
        _emit_json({"minor": value.to_json()})
    else:
        click.echo(str(value))


@nmatrix.command("quadric-check")
@click.option("--rank", type=int, required=True, help="type D rank n")
@click.option("--word", default=None, help="generator word; defaults to the D4 example word")
@click.option("--params", default=None)
@click.option("--json", "as_json", is_flag=True)
def nmatrix_quadric_check(rank, word, params, as_json):
    """Check the first row of a type-D product lies on the isotropic cone."""
    if word is None:
        if rank != 4:
            raise CliError("--word is required for rank != 4", EXIT_INVALID)
        w = Word.with_default_params(D4_W0_LETTERS)
    else:
        w = _word_from_options(word, params)
    ok, witness = verify_quadric_relation(rank, w)
    payload = {"holds": ok, "witness": None if witness is None else witness.to_json()}
    if as_json:
        _emit_json(payload)
    else:
        click.echo(f"holds: {ok}" + ("" if ok else f" witness: {witness}"))
    if not ok:
        sys.exit(EXIT_VERIFY_FAILED)


# ----------------------------------------------------------------------
# prepmod


@main.group()
def prepmod():
    """Preprojective-algebra modules, functors, Hom/Ext, rigid modules."""


@prepmod.command("injective")
@click.option("--type", "kind", required=True, help="Dynkin type, e.g. D4")
@click.option("--vertex", type=int, required=True)
@click.option("--out", type=click.Path(), default=None, help="write the module JSON here")
def prepmod_injective(kind, vertex, out):
    """The indecomposable injective module at a vertex, as module JSON."""
    rep = build_algebra_basis(kind).injective(vertex)
    text = json.dumps({"schema": SCHEMA, "module": rep.to_json()}, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text)


@prepmod.command("efunctor")
@click.option("--module", "module_path", required=True, type=click.Path())
@click.option("--word", required=True, help="vertex word, last letter acts first")
@click.option("--dagger", is_flag=True, help="remove socle parts instead of top parts")
@click.option("--json", "as_json", is_flag=True)
def prepmod_efunctor(module_path, word, dagger, as_json):
    """Apply the top- or socle-removal functor along a word."""
    rep = _load_module(module_path)
    result = functor_E_word(rep, _parse_ints(word), dagger=dagger)
    payload = {
        "module": result.to_json(),
        "dims": list(result.dims),
        "socle_series": [list(layer) for layer in socle_series(result)],
    }
    if as_json:
        _emit_json(payload)
    else:
        click.echo(f"dims: {payload['dims']}")
        click.echo(f"socle series (socle first): {payload['socle_series']}")


@prepmod.command("hom")
@click.option("--m", "m_path", required=True, type=click.Path())
@click.option("--n", "n_path", required=True, type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def prepmod_hom(m_path, n_path, as_json):
    """dim Hom(M, N)."""
    value = hom_dim(_load_module(m_path), _load_module(n_path))
    _emit_json({"hom_dim": value}) if as_json else click.echo(str(value))


@prepmod.command("ext")
@click.option("--m", "m_path", required=True, type=click.Path())
@click.option("--n", "n_path", required=True, type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def prepmod_ext(m_path, n_path, as_json):
    """dim Ext^1(M, N)."""
    value = ext1_dim(_load_module(m_path), _load_module(n_path))
    _emit_json({"ext1_dim": value}) if as_json else click.echo(str(value))


@prepmod.command("rigid")
@click.option("--module", "module_path", required=True, type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def prepmod_rigid(module_path, as_json):
    """Rigidity test: Ext^1(M, M) = 0."""
    value = is_rigid(_load_module(module_path))
    _emit_json({"rigid": value}) if as_json else click.echo(str(value))


@prepmod.command("build-rigid")
@click.option("--type", "kind", required=True)
@click.option("--K", "k_set", required=True, help="comma-separated vertex subset")
@click.option("--word", required=True, help="reduced word for w_0 with w_0^K prefix")
@click.option("--json", "as_json", is_flag=True)
def prepmod_build_rigid(kind, k_set, word, as_json):
    """Complete rigid module from a reduced word (summand list report)."""
    res = build_complete_rigid(kind, _parse_ints(k_set), _parse_ints(word))
    payload = {
        "labels": res["labels"],
        "dim_NK": res["dim_NK"],
        "zero_positions": res["zero_positions"],
        "q_k": {str(k): v for k, v in res["q_k"].items()},
        "summands": [
            {
                "label": lab,
                "dims": list(s.dims),
                "socle_series": [list(layer) for layer in socle_series(s)],
            }
            for lab, s in zip(res["labels"], res["summands"])
        ],
    }
    if as_json:
        _emit_json(payload)
        return
    click.echo(f"dim N_K = {res['dim_NK']}; zero positions {res['zero_positions']}")
    for item in payload["summands"]:
        click.echo(f"{item['label']}: dims {item['dims']} socle series {item['socle_series']}")


@prepmod.command("exchange-matrix")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="JSON with summands, n_frozen, sequences, coeff_vertices")
@click.option("--builtin", "builtin_name", type=click.Choice(["d4-example152"]), default=None)
@click.option("--json", "as_json", is_flag=True)
def prepmod_exchange_matrix(input_path, builtin_name, as_json):
    """Exchange matrix B(T) from exchange-sequence data."""
    if (input_path is None) == (builtin_name is None):
        raise CliError("provide exactly one of --input or --builtin", EXIT_INVALID)
    if builtin_name:
        data = case_registry.d4_rigid_summands()
        summands = data["ordered"]
        n_frozen = 4
        sequences = list(case_registry.D4_SEQUENCES)
        coeff_vertices = (4,)
    else:
        try:
            blob = json.loads(Path(input_path).read_text())
            summands = [QuiverRep.from_json(m) for m in blob["summands"]]
            n_frozen = _json_int(blob["n_frozen"], "n_frozen")
            sequences = [{k: tuple(_json_int(x, f"{k} entry") for x in s[k]) for k in "XY"}
                         for s in blob["sequences"]]
            coeff_vertices = tuple(
                _json_int(v, "coefficient vertex") for v in blob.get("coeff_vertices", ())
            )
        except (OSError, ValueError, KeyError, TypeError, ArithmeticError, PrepmodError) as exc:
            raise CliError(f"cannot parse exchange data {input_path}: {exc}", EXIT_INVALID) from exc
    out = exchange_matrix_from_sequences(summands, n_frozen, sequences, coeff_vertices)
    payload = {
        "matrix": out["matrix"].to_lists(),
        "extended_rows": {str(k): list(v) for k, v in out["extended_rows"].items()},
        "extended_matrix": out["extended_matrix"].to_lists(),
    }
    if as_json:
        _emit_json(payload)
    else:
        click.echo(f"B(T) rows: {payload['matrix']}")
        if payload["extended_rows"]:
            click.echo(f"extension rows: {payload['extended_rows']}")


# ----------------------------------------------------------------------
# phi


@main.group(name="phi")
def phi_group():
    """Flag functions phi_M: evaluation, Euler characteristics, verification."""


@phi_group.command("eval")
@click.option("--module", "module_path", required=True, type=click.Path())
@click.option("--word", required=True)
@click.option("--params", default=None)
@click.option("--json", "as_json", is_flag=True)
def phi_eval_cmd(module_path, word, params, as_json):
    """phi_M over a word, as an exact polynomial in the parameters."""
    rep = _load_module(module_path)
    names = _parse_names(params) if params else None
    report = phi_eval(rep, _parse_ints(word), params=names)
    if as_json:
        _emit_json(report.to_json())
    else:
        click.echo(f"phi = {report.poly}")
        click.echo(f"backend: {report.backend} primes: {list(report.primes)}")


@phi_group.command("chi")
@click.option("--module", "module_path", required=True, type=click.Path())
@click.option("--type", "type_word", required=True, help="composition-series type word")
@click.option("--json", "as_json", is_flag=True)
def phi_chi_cmd(module_path, type_word, as_json):
    """Euler characteristic of the composition-series variety of one type."""
    result = chi(_load_module(module_path), _parse_ints(type_word))
    payload = {"value": result.value, "backend": result.backend, "primes_used": list(result.primes)}
    if as_json:
        _emit_json(payload)
    else:
        click.echo(f"chi = {result.value} ({result.backend}, primes {list(result.primes)})")


def _echo_case(report: dict) -> bool:
    click.echo(f"[case {report['name']}] {'PASS' if report['ok'] else 'FAIL'}")
    for check in report["checks"]:
        mark = "ok " if check["ok"] else "FAIL"
        detail = f"  ({check['detail']})" if check["detail"] and not check["ok"] else ""
        click.echo(f"  {mark} {check['name']}{detail}")
    return report["ok"]


@phi_group.command("verify")
@click.option("--case", "case_name", required=True,
              type=click.Choice(sorted(case_registry.CASES)))
@click.option("--n", type=int, default=4, show_default=True, help="rank for the quadric case")
@click.option("--json", "as_json", is_flag=True)
def phi_verify_cmd(case_name, n, as_json):
    """Run one named verification case."""
    kwargs = {"n": n} if case_name == "quadric" else {}
    report = case_registry.run_case(case_name, **kwargs)
    if as_json:
        _emit_json(report)
    else:
        _echo_case(report)
    if not report["ok"]:
        sys.exit(EXIT_VERIFY_FAILED)


@phi_group.command("positivity")
@click.option("--rigid", "rigid_name", type=click.Choice(["d4-example"]), required=True)
@click.option("--point", default=None, help="comma-separated positive rationals, one per parameter")
@click.option("--random-points", type=click.IntRange(min=0), default=0,
              help="additionally test this many random positive points")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def phi_positivity_cmd(ctx, rigid_name, point, random_points, as_json):
    """Positivity of the summand functions of the basic complete rigid modules."""
    data = case_registry.d4_rigid_summands()
    summands = dict(zip(data["labels"], data["ordered"]))
    summands.update({"M7*": data["M7*"], "M8*": data["M8*"]})
    families = {
        "T1": ["M4", "M5", "M6", "M7", "M8", "Q4"],
        "T2": ["M4", "M5", "M6", "M7*", "M8", "Q4"],
        "T3": ["M4", "M5", "M6", "M7", "M8*", "Q4"],
        "T4": ["M4", "M5", "M6", "M7*", "M8*", "Q4"],
    }
    rng = random.Random(ctx.obj["rng_seed"])
    points = []
    if point:
        try:
            pt = [Fraction(x) for x in point.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"expected comma-separated rationals for --point, got {point!r}",
                           EXIT_INVALID) from exc
        if len(pt) != len(D4_W0_LETTERS):
            raise CliError("point must supply one value per word letter", EXIT_INVALID)
        if any(x <= 0 for x in pt):
            raise CliError("positivity check requires strictly positive coordinates", EXIT_INVALID)
        points.append(pt)
    for _ in range(random_points):
        points.append([Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in D4_W0_LETTERS])
    if not points:
        points.append([Fraction(1)] * len(D4_W0_LETTERS))
    counter = FlagCounter()
    polys = {label: phi_eval(rep, D4_W0_LETTERS, counter=counter).poly
             for label, rep in summands.items()}
    values = [{label: poly.evaluate(dict(zip(poly.varnames, pt))) for label, poly in polys.items()}
              for pt in points]
    results = [{"family": name, "point": [str(x) for x in pt],
                "all_positive": all(at[label] > 0 for label in labels),
                "values": [str(at[label]) for label in labels]}
               for name, labels in families.items() for pt, at in zip(points, values)]
    all_ok = all(r["all_positive"] for r in results)
    if as_json:
        _emit_json({"results": results, "all_positive": all_ok})
    else:
        for r in results:
            click.echo(f"{r['family']} at ({', '.join(r['point'])}): "
                       f"{'all positive' if r['all_positive'] else 'NOT positive'}")
    if not all_ok:
        sys.exit(EXIT_VERIFY_FAILED)


# ----------------------------------------------------------------------
# verify


@main.group()
def verify():
    """Aggregated verification suites."""


@verify.command("all")
@click.option("--suite", type=click.Choice(["paper-golden"]), default="paper-golden",
              show_default=True)
@click.option("--json", "as_json", is_flag=True)
def verify_all(suite, as_json):
    """Run every registered verification case and report pass/fail counts."""
    reports = case_registry.paper_golden_suite()
    passed = sum(1 for r in reports if r["ok"])
    if as_json:
        _emit_json({"suite": suite, "passed": passed, "total": len(reports), "cases": reports})
    else:
        for r in reports:
            _echo_case(r)
        click.echo(f"passed {passed}/{len(reports)} cases")
    if passed != len(reports):
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
