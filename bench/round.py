"""One round of a benchmark workload in a fresh interpreter.

    python3 bench/round.py --workload NAME --seed N [--round R] [--trace 0|1] [--spans PATH]

Imports clusterforge from the checkout's src/, builds the workload's inputs
(set-up), runs its operations once (timed), then checks every answer.  It
prints one JSON object: setup_s and wall_s in calibrated seconds (see
REFERENCE_S) and as measured, the slice times, peak_rss_mib, the operations attempted and
failed, any problems the checks found and, with --trace 1, the per-layer
metrics of the round.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# Times are reported in calibrated seconds.  The speed of a shared machine
# swings by up to a factor of two, in phases from a second to minutes, so
# the round times a short fixed loop, a *slice*, right before its first
# operation, again whenever the operations since the last slice have taken
# SEGMENT_S or more, and after the last one.  Measured seconds are scaled
# by REFERENCE_S over the mean slice time of the round.  The slices slow
# down in the same phases as the operations, so the ratio removes most of
# the drift, while a change to clusterforge cannot move the slices.  One
# slice is a noisy sample: consecutive ones differ by up to a third, so
# the round's mean is used rather than the slices next to each operation.
# REFERENCE_S is about the median slice time on the machine the README's
# figures come from.
REFERENCE_S = 0.02
SEGMENT_S = 0.02


def reference_loop() -> float:
    """Seconds for a fixed pure-Python mix of integer, tuple, dict and
    Fraction work, with the collector off so that the heap the workload
    holds does not slow the loop.  Its table stays small, so that it does
    not raise the process's peak memory."""
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        total = Fraction(0)
        for i in range(33_000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i * i % 7
            if i % 8 == 0:
                total += Fraction(i % 13, 1 + i % 5)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0, help="index of the round in its run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here (gzipped TSV)")
    args = parser.parse_args()

    import clusterforge  # noqa: F401  (import time counts towards set-up)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    plan = workloads.build(args.workload, args.seed, round_index=args.round)
    raw_setup_s = time.perf_counter() - SETUP_START

    if tracer is not None:
        tracer.start_run()
    answers: dict = {}
    errors: list[str] = []
    slices = [reference_loop()]
    raw_wall_s = segment = 0.0
    for index, (label, op) in enumerate(plan.ops):
        start = time.perf_counter()
        try:
            answers[label] = op(answers)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        raw_wall_s += elapsed
        segment += elapsed
        if segment >= SEGMENT_S or index == len(plan.ops) - 1:
            slices.append(reference_loop())
            segment = 0.0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    out = {
        "setup_s": raw_setup_s * REFERENCE_S / statistics.fmean(slices),
        "wall_s": raw_wall_s * REFERENCE_S / statistics.fmean(slices),
        "peak_rss_mib": peak_rss_mib,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "reference_s": slices,
        "attempted": len(plan.ops),
        "failed": len(errors),
        "errors": errors,
        "problems": plan.check(answers),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, plan.counters)
        out["missing_targets"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
