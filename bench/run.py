"""Run one clusterforge benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: phi-minors, phi-product-rule, cluster-finite, cluster-infinite
(see bench/README.md).  The run repeats whole rounds, each in a fresh
interpreter (bench/round.py), as many as fit in --seconds, and checks every
answer of every round.  With --trace 0 it reports the medians over rounds
of wall_s and setup_s, in calibrated seconds (see bench/round.py), and of
peak_rss_mib; with --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones, the tracing overhead and
the median slice time.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Round results and
the spans of the first traced round are written under bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ROUND_TIMEOUT_S = 150

WORKLOADS = ("phi-minors", "phi-product-rule", "cluster-finite", "cluster-infinite")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metrics whose unit is not a count.
LAYER_UNITS = {"hit_ratio": "ratio", "new_seed_ratio": "ratio", "bytes": "bytes", "overhead_ratio": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "incl_s", "wall_s", "untraced_wall_s", "reference_s"):
        return "s"
    return LAYER_UNITS.get(last, "count")


def run_round(workload: str, seed: int, index: int, trace: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload, "--seed", str(seed),
           "--round", str(index), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clusterforge" / "__init__.py").is_file():
        print(f"error: no clusterforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile once up front, so that no round pays for bytecode compilation.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"

    rounds: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    try:
        # Whole rounds only: a round starts while one of median length still
        # ends within the measured seconds, and the first always runs.
        while not durations or (
            time.perf_counter() - start + 1.1 * statistics.median(durations) <= args.seconds
        ):
            began = time.perf_counter()
            index = len(durations)
            if args.trace:
                plain = run_round(args.workload, args.seed, index, False, None)
                traced = run_round(args.workload, args.seed, index, True,
                                   spans_path if index == 0 else None)
                rounds += [dict(plain, traced=False), dict(traced, traced=True)]
            else:
                rounds.append(dict(run_round(args.workload, args.seed, index, False, None),
                                   traced=False))
            durations.append(time.perf_counter() - began)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in rounds:
        for line in r["errors"] + r["problems"]:
            print(f"{args.workload}: {line}", file=sys.stderr)
    for name in sorted({t for r in rounds for t in r.get("missing_targets", ())}):
        print(f"warning: no {name} to trace; its metrics read 0", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    metrics: dict[str, dict] = {}
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        for name in traced[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        reference = statistics.median(x for r in rounds for x in r["reference_s"])
        for name, value in (("trace.wall_s", traced_wall), ("trace.untraced_wall_s", plain_wall),
                            ("trace.overhead_ratio", traced_wall / plain_wall - 1),
                            ("trace.reference_s", reference)):
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}

    result = {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({"result": result, "rounds": rounds}, indent=1))
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed, correct={result['correct']}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
