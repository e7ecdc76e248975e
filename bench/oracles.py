"""Oracles for the benchmark's answers, each computed apart from the code it
checks: closed-form counts of finite-type cluster algebras (Fomin and
Zelevinsky, "Cluster algebras II", Invent. Math. 2003), Fibonacci and
Markov numbers, and, for phi_M, the minors of the unipotent product over
the same word, each pinned to a module by its degree in every vertex.

Every check returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from clusterforge import laurent, nmatrix, phi

# ----------------------------------------------------------------------
# phi


def index_weights(kind: str) -> dict[int, tuple[int, ...]]:
    """A weight per matrix index such that the generator x_i(t) holds t at
    (r, c) only where w(c) - w(r) is the i-th unit vector.  A minor on rows
    R and columns C is then homogeneous of vertex degree sum w(C) - sum w(R),
    which is dim M for the module M whose phi it equals."""
    letter, rank = nmatrix.parse_type(kind)
    size = nmatrix.matrix_size(kind)
    t = laurent.LaurentPoly.variable("t", ("t",))
    steps = []
    for i in range(1, rank + 1):
        g = nmatrix.generator(kind, i, "t", ("t",))
        unit = tuple(int(v == i) for v in range(1, rank + 1))
        steps += [(r, c, unit) for r in range(1, size + 1) for c in range(1, size + 1)
                  if g.entry(r, c) == t]
    weights = {1: (0,) * rank}
    while len(weights) < size:
        grown = False
        for r, c, unit in steps:
            if r in weights and c not in weights:
                weights[c] = tuple(a + b for a, b in zip(weights[r], unit))
                grown = True
            elif c in weights and r not in weights:
                weights[r] = tuple(a - b for a, b in zip(weights[c], unit))
                grown = True
        if not grown:
            raise ValueError(f"generators of {kind} do not connect every index")
    return weights


def check_minor_matching(kind, rows, modules, reports, minors) -> list[str]:
    """Each phi_M equals exactly one of the minors, and that minor is the
    one of vertex degree dim M; so no two modules share a minor, and the
    submodules found cover every minor."""
    weights = index_weights(kind)

    def degree(idx):
        return tuple(map(sum, zip(*(weights[i] for i in idx))))

    base = degree(rows)
    by_degree = {tuple(a - b for a, b in zip(degree(c), base)): c for c in minors}
    problems = []
    if sorted(by_degree) != sorted(m.dims for m in modules):
        problems.append(
            f"{kind}: submodule dimension vectors {sorted(m.dims for m in modules)} "
            f"are not the minor degrees {sorted(by_degree)}"
        )
    for i, (module, report) in enumerate(zip(modules, reports)):
        if report is None:
            continue
        matches = [c for c, m in minors.items() if m is not None and m == report.poly]
        expected = by_degree.get(module.dims)
        if matches != [expected]:
            problems.append(
                f"{kind} module {i} (dims {module.dims}): phi equals the minors "
                f"{matches}, expected only {expected}"
            )
    return problems


def check_exact_backend(label: str, report: phi.PhiReport) -> list[str]:
    backends = {r.backend for r in report.table.entries.values()} | {report.backend}
    if backends != {phi.EXACT}:
        return [f"{label}: chi backends {sorted(backends)}, expected only {phi.EXACT}"]
    return []


def check_integer_chi(label: str, report: phi.PhiReport) -> list[str]:
    """Every chi is an integer from a known backend; interpolated ones name
    their primes, and the report's backend is interpolated iff one is."""
    problems = []
    interpolated = False
    for word, r in report.table.entries.items():
        if type(r.value) is not int:
            problems.append(f"{label}: chi{word} = {r.value!r} is not an integer")
        if r.backend == phi.INTERPOLATED:
            interpolated = True
            if not r.primes:
                problems.append(f"{label}: interpolated chi{word} names no primes")
        elif r.backend != phi.EXACT:
            problems.append(f"{label}: chi{word} has unknown backend {r.backend!r}")
    if interpolated != (report.backend == phi.INTERPOLATED):
        problems.append(f"{label}: report backend {report.backend} disagrees with its chi table")
    return problems


def check_product_rule(name: str, answers: dict, exchange: bool) -> list[str]:
    """phi_M phi_N = phi_{M+N}; for an exchange pair also dim Ext^1(M,N) = 1
    and phi_M phi_N = phi_X + phi_Y."""
    parts = ("M", "N", "M+N", "X", "Y") if exchange else ("M", "N", "M+N")
    polys = {}
    for part in parts:
        report = answers.get(f"{name}:{part}")
        if report is None:
            return []
        polys[part] = report.poly
    problems = []
    product = polys["M"] * polys["N"]
    if product != polys["M+N"]:
        problems.append(f"{name}: phi_M phi_N != phi_(M+N)")
    if exchange:
        ext = answers.get(f"{name}:ext1")
        if ext is not None and ext != 1:
            problems.append(f"{name}: dim Ext^1(M,N) = {ext}, expected 1")
        if product != polys["X"] + polys["Y"]:
            problems.append(f"{name}: phi_M phi_N != phi_X + phi_Y")
    return problems


# ----------------------------------------------------------------------
# finite type


def type_counts(letter: str, rank: int) -> tuple[int, int]:
    """(clusters, cluster variables) of the cluster algebra of type X_n."""
    if letter == "A":
        return comb(2 * rank + 2, rank + 1) // (rank + 2), rank * (rank + 3) // 2
    if letter == "D":
        return (3 * rank - 2) * comb(2 * rank - 2, rank - 1) // rank, rank * rank
    raise ValueError(f"no closed form for type {letter}")


def finite_type_counts(parts) -> tuple[int, int]:
    """Counts of a product of types: clusters multiply, variables add."""
    clusters, variables = 1, 0
    for letter, rank in parts:
        c, v = type_counts(letter, rank)
        clusters *= c
        variables += v
    return clusters, variables


def check_finite_report(name: str, report, clusters: int, variables: int) -> list[str]:
    if report is None:
        return []
    expected = {
        "finite": True,
        "exhausted": True,
        "cluster_count": clusters,
        "cluster_variable_count": variables,
    }
    got = {k: report.get(k) for k in expected}
    return [] if got == expected else [f"{name}: is_finite_type gave {got}, expected {expected}"]


def exchange_binomial(seed, k: int) -> laurent.LaurentPoly:
    """prod_{b_ik > 0} y_i^b_ik + prod_{b_ik < 0} y_i^-b_ik, from the matrix."""
    one = laurent.LaurentPoly.one(seed.varnames)
    pos, neg = one, one
    for row, y in zip(seed.matrix.rows, seed.cluster):
        b = row[k - 1]
        for _ in range(abs(b)):
            if b > 0:
                pos = pos * y
            else:
                neg = neg * y
    return pos + neg


def check_exchanges(name: str, mc) -> list[str]:
    """On every edge the new variable times the old one is the exchange
    binomial of the old seed."""
    for key in mc.order:
        seed = mc.seeds[key]
        for k, dst in mc.graph[key].items():
            new = set(mc.seeds[dst].mutable) - set(seed.mutable)
            old = seed.cluster[k - 1]
            if len(new) != 1 or old * new.pop() != exchange_binomial(seed, k):
                return [f"{name}: the exchange in direction {k} breaks old * new = binomial"]
    return []


def check_finite_class(name: str, mc, clusters: int, variables: int) -> list[str]:
    if mc is None:
        return []
    got = (mc.exhausted, mc.cluster_count, len(mc.variables()))
    if got != (True, clusters, variables):
        return [
            f"{name}: explore gave (exhausted, clusters, variables) = {got}, "
            f"expected {(True, clusters, variables)}"
        ]
    return check_exchanges(name, mc)


# ----------------------------------------------------------------------
# infinite type


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _values_at_one(poly) -> Fraction:
    return poly.evaluate({v: 1 for v in poly.varnames})


def check_kronecker(mc, depth: int) -> list[str]:
    """2D+1 clusters and 2D+2 variables whose values at (1,1) are F_1, F_3,
    ..., F_{2D+1}, each taken twice."""
    if mc is None:
        return []
    problems = []
    if (mc.cluster_count, len(mc.variables())) != (2 * depth + 1, 2 * depth + 2):
        problems.append(
            f"kronecker: {mc.cluster_count} clusters and {len(mc.variables())} "
            f"variables at depth {depth}, expected {2 * depth + 1} and {2 * depth + 2}"
        )
    values = sorted(_values_at_one(p) for p in mc.variables())
    expected = sorted(fibonacci(2 * i + 1) for i in range(depth + 1) for _ in range(2))
    if values != expected:
        problems.append(f"kronecker: values at (1,1) {values} are not {expected}")
    return problems


def check_markov(mc, depth: int) -> list[str]:
    """The exchange graph is the trivalent tree, so 3 * 2^D - 2 clusters
    within depth D, and every cluster at (1,1,1) is a Markov triple."""
    if mc is None:
        return []
    problems = []
    if mc.cluster_count != 3 * 2**depth - 2:
        problems.append(
            f"markov: {mc.cluster_count} clusters at depth {depth}, expected {3 * 2**depth - 2}"
        )
    for seed in mc.seeds.values():
        a, b, c = (_values_at_one(p) for p in seed.cluster)
        if a * a + b * b + c * c != 3 * a * b * c:
            problems.append(f"markov: cluster values {(a, b, c)} are not a Markov triple")
            break
    return problems


def check_not_finite(name: str, report) -> list[str]:
    if report is None or report.get("finite") is False:
        return []
    return [f"{name}: is_finite_type reports finite = {report.get('finite')!r}"]
