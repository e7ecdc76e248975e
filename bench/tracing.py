"""Span tracing for the traced benchmark run.

`Tracer.install` wraps the public functions of each clusterforge layer
wherever a clusterforge module binds them.  Every call records one span in
memory: name, start, end, parent span and one value (result terms, primes
used, a memo hit, ...).  `layer_metrics` turns the spans of the timed
operations into the per-layer metrics; self time is a span's duration
minus the durations of its child spans.  The fields layer gets no wrapper:
one field operation costs less than a wrapper, so it is measured through
the `linalg` routines that call it.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from fractions import Fraction

from clusterforge import cluster, laurent, linalg, nmatrix, phi, prepmod


def _field_tag(field) -> str:
    return "qq" if getattr(field, "name", None) == "QQ" else "gfp"


def _chi_post(result):
    tag = "exact" if result.backend == phi.EXACT else "interpolated"
    return f"phi.chi.{tag}", len(result.primes)


# (owner, attribute, span name or a function of the call's arguments that
# gives it, function of the result giving a new name or None, and a value)
TARGETS = (
    (laurent.LaurentPoly, "__mul__", "laurent.mul", lambda r: (None, len(r.terms))),
    (laurent.LaurentPoly, "div_exact", "laurent.div_exact", None),
    (cluster, "mutate_seed", "cluster.mutate_seed", None),
    (cluster, "explore", "cluster.explore", lambda r: (None, r.cluster_count)),
    (cluster, "is_finite_type", "cluster.is_finite_type", None),
    (nmatrix, "product", "nmatrix.product", None),
    (nmatrix, "minor", "nmatrix.minor", None),
    (prepmod, "build_algebra_basis", "prepmod.algebra_build", None),
    (prepmod, "quotient_rep", "prepmod.quotient_rep", None),
    (prepmod, "socle_basis_at", "prepmod.socle_basis_at", None),
    (prepmod, "fingerprint", "prepmod.fingerprint", None),
    (prepmod, "hom_basis", "prepmod.hom_basis", None),
    (prepmod, "proven_isomorphic", "prepmod.proven_isomorphic", lambda r: (None, int(r is None))),
    (linalg, "rref", lambda a: f"linalg.rref.{_field_tag(a[0])}", None),
    (linalg, "mat_mul", "linalg.mat_mul", None),
    (phi, "phi_eval", "phi.phi_eval", None),
    (phi, "chi", "phi.chi.failed", _chi_post),
    (phi, "count_flags", lambda a: f"phi.count_flags.{_field_tag(a[0].field)}", None),
    (phi.FlagCounter, "lookup", "phi.memo.lookup", lambda r: (None, int(r is not None))),
)


class Tracer:
    """In-memory span recorder; spans before `start_run` belong to set-up."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.value = array("q")
        self.run_from = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def start_run(self) -> None:
        self.run_from = len(self.start)

    def install(self) -> None:
        for owner, attr, name, post in TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapper = self._wrap(original, name, post)
            for holder in self._holders(owner, original):
                for key, val in list(vars(holder).items()):
                    if val is original:
                        self._undo.append((holder, key, val))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, val in reversed(self._undo):
            setattr(holder, key, val)
        self._undo.clear()

    @staticmethod
    def _holders(owner, original):
        """The owner class, or every clusterforge module, since modules
        bind imported functions under their own names."""
        if isinstance(owner, type):
            return [owner]
        return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "clusterforge"]

    def _wrap(self, fn, name, post):
        name_of = name if callable(name) else None
        names, start, end, parent, value = self.names, self.start, self.end, self.parent, self.value
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(name_of(args) if name_of else name)
            parent.append(stack[-1])
            value.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                new_name, val = post(result)
                if new_name:
                    names[idx] = new_name
                value[idx] = val
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_name(self, lo: int, hi: int) -> dict[str, dict]:
        """calls, self and inclusive seconds, value sum and max per span name."""
        child = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            dur = end[i] - start[i]
            row = out.get(self.names[i])
            if row is None:
                row = out[self.names[i]] = {"calls": 0, "s": 0.0, "incl_s": 0.0, "sum": 0, "max": 0}
            row["calls"] += 1
            row["s"] += dur - child[i]
            row["incl_s"] += dur
            row["sum"] += self.value[i]
            row["max"] = max(row["max"], self.value[i])
        return out

    def write(self, path) -> None:
        """All spans as gzipped TSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=3) as f:
            f.write("index\tname\tstart_s\tend_s\tparent\tvalue\tphase\n")
            for i in range(len(self.start)):
                phase = "run" if i >= self.run_from else "setup"
                f.write(
                    f"{i}\t{self.names[i]}\t{self.start[i] - t0!r}\t{self.end[i] - t0!r}\t"
                    f"{self.parent[i]}\t{self.value[i]}\t{phase}\n"
                )


def deep_size(roots) -> int:
    """Bytes of every object reachable from roots, each counted once."""
    seen: set[int] = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, Fraction):
            stack.extend((obj.numerator, obj.denominator))
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total


def layer_metrics(tracer: Tracer, counters) -> dict[str, float]:
    """The per-layer metrics of the timed operations; the algebra build is
    summed over set-up as well, which is where it happens."""
    run = tracer.per_name(tracer.run_from, len(tracer.start))
    setup = tracer.per_name(0, tracer.run_from)
    zero = {"calls": 0, "s": 0.0, "incl_s": 0.0, "sum": 0, "max": 0}

    def get(name: str) -> dict:
        return run.get(name, zero)

    exact, interp = get("phi.chi.exact"), get("phi.chi.interpolated")
    lookup = get("phi.memo.lookup")
    explore, mutate = get("cluster.explore"), get("cluster.mutate_seed")
    build = [setup.get("prepmod.algebra_build", zero), get("prepmod.algebra_build")]
    memo_vars = [vars(c) for c in counters]
    m = {
        "phi.phi_eval.s": get("phi.phi_eval")["s"],
        "phi.chi.calls": exact["calls"] + interp["calls"] + get("phi.chi.failed")["calls"],
        "phi.chi.exact.calls": exact["calls"],
        "phi.chi.exact.s": exact["s"],
        "phi.chi.exact.incl_s": exact["incl_s"],
        "phi.chi.interpolated.calls": interp["calls"],
        "phi.chi.interpolated.s": interp["s"],
        "phi.chi.interpolated.incl_s": interp["incl_s"],
        "phi.chi.primes": interp["sum"],
        "phi.count_flags.qq.s": get("phi.count_flags.qq")["s"],
        "phi.count_flags.gfp.s": get("phi.count_flags.gfp")["s"],
        "phi.memo.lookups": lookup["calls"],
        "phi.memo.hits": lookup["sum"],
        "phi.memo.hit_ratio": lookup["sum"] / lookup["calls"] if lookup["calls"] else 0.0,
        "phi.memo.lookup.s": lookup["s"],
        "phi.memo.lookup.incl_s": lookup["incl_s"],
        "phi.memo.entries": sum(c.entry_count for c in counters),
        "phi.memo.bytes": deep_size(memo_vars) if counters else 0,
        "prepmod.quotient_rep.calls": get("prepmod.quotient_rep")["calls"],
        "prepmod.quotient_rep.s": get("prepmod.quotient_rep")["s"],
        "prepmod.fingerprint.calls": get("prepmod.fingerprint")["calls"],
        "prepmod.fingerprint.s": get("prepmod.fingerprint")["s"],
        "prepmod.proven_isomorphic.calls": get("prepmod.proven_isomorphic")["calls"],
        "prepmod.proven_isomorphic.s": get("prepmod.proven_isomorphic")["s"],
        "prepmod.proven_isomorphic.inconclusive": get("prepmod.proven_isomorphic")["sum"],
        "prepmod.socle_basis_at.s": get("prepmod.socle_basis_at")["s"],
        "prepmod.hom_basis.s": get("prepmod.hom_basis")["s"],
        "prepmod.algebra_build.s": sum(b["s"] for b in build),
        "linalg.rref.qq.calls": get("linalg.rref.qq")["calls"],
        "linalg.rref.qq.s": get("linalg.rref.qq")["s"],
        "linalg.rref.gfp.calls": get("linalg.rref.gfp")["calls"],
        "linalg.rref.gfp.s": get("linalg.rref.gfp")["s"],
        "linalg.mat_mul.s": get("linalg.mat_mul")["s"],
        "laurent.mul.calls": get("laurent.mul")["calls"],
        "laurent.mul.s": get("laurent.mul")["s"],
        "laurent.mul.max_terms": get("laurent.mul")["max"],
        "laurent.div_exact.calls": get("laurent.div_exact")["calls"],
        "laurent.div_exact.s": get("laurent.div_exact")["s"],
        "cluster.mutate_seed.calls": mutate["calls"],
        "cluster.mutate_seed.s": mutate["s"],
        "cluster.explore.s": explore["s"],
        "cluster.seeds": explore["sum"],
        # each exploration finds its seeds, less the one it starts from
        "cluster.new_seed_ratio": (explore["sum"] - explore["calls"]) / mutate["calls"]
        if mutate["calls"]
        else 0.0,
        "cluster.is_finite_type.s": get("cluster.is_finite_type")["s"],
        "cluster.is_finite_type.incl_s": get("cluster.is_finite_type")["incl_s"],
        "nmatrix.product.s": get("nmatrix.product")["s"],
        "nmatrix.minor.calls": get("nmatrix.minor")["calls"],
        "nmatrix.minor.s": get("nmatrix.minor")["s"],
        "trace.spans": len(tracer.start) - tracer.run_from,
    }
    return m
