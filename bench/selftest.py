"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at its tiny size, requires its checks to pass on the
program's answers and to fail on each of a set of deliberately wrong
answers, and runs bench/run.py end to end to check the shape of its
result line.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from clusterforge import cluster, phi  # noqa: E402

import workloads  # noqa: E402


def answers_of(plan: workloads.Plan) -> dict:
    answers: dict = {}
    for label, op in plan.ops:
        answers[label] = op(answers)
    return answers


def with_chi(report: phi.PhiReport, result: phi.ChiResult) -> phi.PhiReport:
    """The report with its first chi entry replaced."""
    entries = dict(report.table.entries)
    entries[next(iter(entries))] = result
    return dataclasses.replace(report, table=phi.ChiTable(entries))


def with_cluster(mc, index: int, change) -> cluster.MutationClass:
    """The class with cluster variable `index` of one non-initial seed changed."""
    seeds = dict(mc.seeds)
    key = mc.order[1]
    seed = seeds[key]
    new = list(seed.cluster)
    new[index] = change(new[index])
    seeds[key] = dataclasses.replace(seed, cluster=tuple(new))
    return dataclasses.replace(mc, seeds=seeds)


def swapped(answers: dict, a: str, b: str) -> dict:
    out = dict(answers)
    out[a], out[b] = answers[b], answers[a]
    return out


def changed(answers: dict, label: str, value) -> dict:
    out = dict(answers)
    out[label] = value
    return out


def redirected_edge(mc) -> cluster.MutationClass:
    """The class with one exchange edge pointing at the wrong seed."""
    graph = {k: dict(v) for k, v in mc.graph.items()}
    src = mc.order[0]
    k, dst = next(iter(graph[src].items()))
    graph[src][k] = next(key for key in mc.order if key not in (src, dst))
    return dataclasses.replace(mc, graph=graph)


def wrong_answers(name: str, a: dict) -> dict[str, dict]:
    """Deliberately wrong variants of a tiny workload's answers."""
    if name == "phi-minors":
        interpolated = phi.ChiResult(1, phi.INTERPOLATED, (2, 3, 5))
        return {
            "two phi answers swapped": swapped(a, "phi:A3:1", "phi:A3:2"),
            "two minors swapped": swapped(a, "minor:A3:(1, 2)", "minor:A3:(1, 3)"),
            "a minor perturbed": changed(a, "minor:D4:(3,)", a["minor:D4:(3,)"] + 1),
            "an interpolated chi": changed(a, "phi:D4:3", with_chi(a["phi:D4:3"], interpolated)),
        }
    if name == "phi-product-rule":
        half = phi.ChiResult(Fraction(1, 2), phi.INTERPOLATED, (2, 3, 5))
        m = a["A3-pair0:M+N"]
        return {
            "phi_(M+N) perturbed": changed(
                a, "A3-pair0:M+N", dataclasses.replace(m, poly=m.poly + 1)
            ),
            "phi_X and phi_M swapped": swapped(a, "A3-plucker:X", "A3-plucker:M"),
            "Ext^1 of an exchange pair 2": changed(a, "A2-thm6.1:ext1", 2),
            "a non-integer interpolated chi": changed(a, "A3-pair0:M", with_chi(a["A3-pair0:M"], half)),
        }
    if name == "cluster-finite":
        report = a["finite:D4"]
        return {
            "a cluster count off by one": changed(
                a, "finite:D4", dict(report, cluster_count=report["cluster_count"] + 1)
            ),
            "a variable count off by one": changed(
                a, "finite:A3", dict(a["finite:A3"], cluster_variable_count=8)
            ),
            "finite reported false": changed(a, "finite:gr(2,5)", dict(a["finite:gr(2,5)"], finite=False)),
            "an exchange edge redirected": changed(a, "explore:D4", redirected_edge(a["explore:D4"])),
            "a class cut short": changed(
                a, "explore:A3", dataclasses.replace(a["explore:A3"], exhausted=False)
            ),
        }
    if name == "cluster-infinite":
        return {
            "a Kronecker variable doubled": changed(
                a, "explore:kronecker", with_cluster(a["explore:kronecker"], 0, lambda p: p * 2)
            ),
            "a Markov variable shifted": changed(
                a, "explore:markov", with_cluster(a["explore:markov"], 1, lambda p: p + 1)
            ),
            "Kronecker reported finite": changed(
                a, "finite:kronecker", dict(a["finite:kronecker"], finite=True)
            ),
        }
    raise ValueError(name)


def check_run_output() -> list[str]:
    """bench/run.py prints a result line of the documented shape."""
    problems = []
    for trace, keys in ((0, {"wall_s", "setup_s", "peak_rss_mib"}), (1, {"phi.memo.hit_ratio", "trace.overhead_ratio"})):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cluster-infinite", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            problems.append(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            problems.append(f"run.py --trace {trace}: unexpected result {result}")
        elif not keys <= set(result["metrics"]):
            problems.append(f"run.py --trace {trace}: metrics lack {sorted(keys - set(result['metrics']))}")
    return problems


def main() -> int:
    failures = []
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, seed=0, scale="tiny")
        answers = answers_of(plan)
        problems = plan.check(answers)
        print(f"{name}: {len(plan.ops)} operations, checks {'pass' if not problems else 'FAIL'}")
        failures += [f"{name}: {p}" for p in problems]
        for what, wrong in wrong_answers(name, answers).items():
            caught = plan.check(wrong)
            print(f"  wrong answer '{what}': {'caught' if caught else 'MISSED'}")
            if not caught:
                failures.append(f"{name}: the checks miss {what}")
    run_problems = check_run_output()
    print(f"run.py result line: {'ok' if not run_problems else 'FAIL'}")
    failures += run_problems
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
