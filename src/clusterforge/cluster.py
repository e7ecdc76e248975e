"""Seeds, matrix/seed mutation, and mutation-class exploration.

A seed is a d-tuple of cluster variables (Laurent polynomials in the d
initial variables) together with a d x (d-n) exchange matrix whose
principal part (the first d-n rows) is skew-symmetric.  The last n cluster
entries are frozen coefficients and belong to every seed of the class.
Direction indices are 1-based throughout, matching the usual convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Optional

from .laurent import InexactDivisionError, LaurentPoly, _is_int, product_of


class ClusterError(Exception):
    pass


class LaurentPhenomenonError(ClusterError):
    """An exchange division failed; carries the offending seed and direction."""

    def __init__(self, seed: "Seed", direction: int, detail: str):
        self.seed = seed
        self.direction = direction
        super().__init__(
            f"inexact exchange division in direction {direction}: {detail}\n"
            f"seed cluster: {[str(p) for p in seed.cluster]}\n"
            f"matrix rows: {seed.matrix.rows}"
        )


@dataclass(frozen=True)
class ExchangeMatrix:
    """A d x (d-n) integer matrix with skew-symmetric principal part."""

    rows: tuple[tuple[int, ...], ...]
    n_frozen: int

    def __post_init__(self):
        d = len(self.rows)
        m = d - self.n_frozen
        if self.n_frozen < 0 or m < 0:
            raise ClusterError(f"need d >= n >= 0, got d={d}, n={self.n_frozen}")
        for row in self.rows:
            if len(row) != m:
                raise ClusterError(f"expected {m} columns, found row of length {len(row)}")
        for i in range(m):
            if self.rows[i][i] != 0:
                raise ClusterError(f"principal diagonal entry ({i + 1},{i + 1}) is nonzero")
            for j in range(i + 1, m):
                if self.rows[i][j] != -self.rows[j][i]:
                    raise ClusterError(
                        f"principal part not skew-symmetric at ({i + 1},{j + 1})"
                    )

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n_mutable(self) -> int:
        return self.d - self.n_frozen

    def column(self, k: int) -> tuple[int, ...]:
        """Column of the matrix for 1-based direction k."""
        return tuple(row[k - 1] for row in self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def mutate_matrix(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based)."""
    if not 1 <= k <= b.n_mutable:
        raise ClusterError(f"direction {k} out of range [1, {b.n_mutable}]")
    return ExchangeMatrix(_mutate_rows(b.rows, k - 1), b.n_frozen)


def _mutate_rows(rows: tuple[tuple[int, ...], ...], kk: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a matrix mutated in 0-based direction kk:
    b'_ij = -b_ij when i = k or j = k, and otherwise
    b'_ij = b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    row_k = rows[kk]
    new_rows = []
    for i, row in enumerate(rows):
        bik = row[kk]
        if i == kk:
            row = tuple(-x for x in row)
        elif bik:
            # b_kk = 0, so entry k comes out as b_ik and is negated after
            a = abs(bik)
            new_row = [bij + (a * bkj + bik * abs(bkj)) // 2 for bij, bkj in zip(row, row_k)]
            new_row[kk] = -bik
            row = tuple(new_row)
        # a row with b_ik = 0 is unchanged
        new_rows.append(row)
    return tuple(new_rows)


@dataclass(frozen=True)
class Seed:
    """An exchange matrix plus the d-tuple of cluster variables."""

    matrix: ExchangeMatrix
    cluster: tuple[LaurentPoly, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.cluster) != self.matrix.d:
            raise ClusterError(
                f"cluster has {len(self.cluster)} entries, matrix expects {self.matrix.d}"
            )
        if len(self.labels) != len(self.cluster):
            raise ClusterError("labels and cluster must have equal length")
        names = self.cluster[0].varnames if self.cluster else ()
        for p in self.cluster:
            if p.varnames != names:
                raise ClusterError("cluster entries live over different variable lists")

    @property
    def varnames(self) -> tuple[str, ...]:
        return self.cluster[0].varnames if self.cluster else ()

    @property
    def mutable(self) -> tuple[LaurentPoly, ...]:
        return self.cluster[: self.matrix.n_mutable]

    @property
    def frozen(self) -> tuple[LaurentPoly, ...]:
        return self.cluster[self.matrix.n_mutable :]

    def key(self) -> tuple:
        """Canonical key: multiset of mutable variables plus the frozen tuple.

        The matrix is deliberately not part of the key; clusters are
        unordered and permuted seeds with the same variables are identified.
        """
        mut = tuple(sorted((p.sort_key() for p in self.mutable)))
        return (mut, tuple(p.sort_key() for p in self.frozen))

    def exchange_binomial(self, k: int) -> LaurentPoly:
        """The two-term numerator prod_{b_ik>0} y_i^{b_ik} + prod_{b_ik<0} y_i^{-b_ik}."""
        col = self.matrix.column(k)
        pos = product_of(
            (y if b == 1 else y ** b for y, b in zip(self.cluster, col) if b > 0), self.varnames
        )
        neg = product_of(
            (y if b == -1 else y ** -b for y, b in zip(self.cluster, col) if b < 0), self.varnames
        )
        return pos + neg

    def to_json(self) -> dict:
        return {
            "d": self.matrix.d,
            "n": self.matrix.n_frozen,
            "matrix": self.matrix.to_lists(),
            "cluster": [p.to_json() for p in self.cluster],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Seed":
        """Read the form written by to_json; raises ClusterError on a blob
        that is not an object, a matrix that is not integer rows, an n that
        is not an integer, a d that is not the matrix's row count, a cluster
        with a zero or a repeated entry, or labels that are not a list of
        strings.  JSON true and false are not integers here."""
        if not isinstance(data, Mapping):
            raise ClusterError("a seed must be a JSON object")
        rows = data["matrix"]
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(_is_int(x) for x in r) for r in rows
        ):
            raise ClusterError("seed matrix must be a list of integer rows")
        n = data["n"]
        if not _is_int(n):
            raise ClusterError(f"seed n must be an integer, got {n!r}")
        matrix = ExchangeMatrix(tuple(tuple(r) for r in rows), n)
        d = data.get("d", matrix.d)
        if not _is_int(d) or d != matrix.d:
            raise ClusterError(f"seed d is {d!r} but the matrix has {matrix.d} rows")
        cluster = tuple(LaurentPoly.from_json(p) for p in data["cluster"])
        if any(p.is_zero for p in cluster):
            raise ClusterError("seed cluster has a zero entry")
        if len(set(cluster)) != len(cluster):
            raise ClusterError("seed cluster has a repeated entry")
        labels = data.get("labels")
        if labels is None:
            labels = [f"y{i + 1}" for i in range(matrix.d)]
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            raise ClusterError("seed labels must be a list of strings")
        return cls(matrix, cluster, tuple(labels))


def _toggle_star(label: str) -> str:
    return label[:-1] if label.endswith("*") else label + "*"


def mutate_seed(s: Seed, k: int) -> Seed:
    """Seed mutation in direction k: replace y_k by the exchange binomial / y_k."""
    if not 1 <= k <= s.matrix.n_mutable:
        raise ClusterError(f"direction {k} out of range [1, {s.matrix.n_mutable}]")
    binomial = s.exchange_binomial(k)
    try:
        new_var = binomial.div_exact(s.cluster[k - 1])
    except InexactDivisionError as exc:
        raise LaurentPhenomenonError(s, k, str(exc)) from exc
    cluster = list(s.cluster)
    cluster[k - 1] = new_var
    labels = list(s.labels)
    labels[k - 1] = _toggle_star(labels[k - 1])
    return Seed(mutate_matrix(s.matrix, k), tuple(cluster), tuple(labels))


@dataclass
class MutationClass:
    """The seeds reachable from an initial seed, up to cluster permutation."""

    initial_key: tuple
    seeds: dict  # canonical key -> Seed (first representative found)
    graph: dict  # canonical key -> {direction k: canonical key}
    order: list  # canonical keys in BFS discovery order
    exhausted: bool

    @property
    def cluster_count(self) -> int:
        return len(self.seeds)

    def variables(self) -> set[LaurentPoly]:
        """The distinct mutable cluster variables over the whole class."""
        out: set[LaurentPoly] = set()
        for seed in self.seeds.values():
            out.update(seed.mutable)
        return out

    def edges(self) -> list[tuple[tuple, int, tuple]]:
        out = []
        for src in self.order:
            for k, dst in sorted(self.graph[src].items()):
                out.append((src, k, dst))
        return out


def _assert_matrix_consistency(stored: Seed, candidate: Seed) -> Optional[list[int]]:
    """Check the candidate's matrix agrees with the stored seed's up to the
    unique cluster permutation, and return that permutation: entry i is the
    stored position of the candidate's i-th mutable entry.  Returns None, and
    checks nothing, when the mutable entries repeat, as no unique
    permutation exists then."""
    if len(set(candidate.mutable)) != len(candidate.mutable):
        return None
    index = {p: i for i, p in enumerate(stored.mutable)}
    perm = [index[p] for p in candidate.mutable]
    _check_permuted(stored.matrix.rows, candidate.matrix.rows, perm)
    return perm


def _check_permuted(stored_rows, rows, perm: list[int]) -> None:
    """Raise ClusterError unless rows[i][j] = stored_rows[P(i)][perm[j]] for
    every row i, frozen rows included, where P(i) is perm[i] for a mutable
    row and i for a frozen one."""
    m = len(perm)
    if any(p != i for i, p in enumerate(perm)):
        pick = itemgetter(*perm)  # m >= 2 here, so pick returns a tuple
        stored_rows = tuple(pick(stored_rows[p]) for p in perm) + tuple(
            pick(row) for row in stored_rows[m:]
        )
    if rows != stored_rows:
        raise ClusterError(
            "mutation produced a seed whose matrix disagrees with the stored "
            "representative under the cluster permutation"
        )


def _mutate_cvecs(cvecs, row_k: tuple[int, ...], kk: int) -> tuple[tuple[int, ...], ...]:
    """The c-vectors, the columns of the bottom block C of the framed matrix
    [B; C], mutated in 0-based direction kk, given row k of B: c'_ik = -c_ik,
    and otherwise c'_ij = c_ij + (|c_ik| b_kj + c_ik |b_kj|) / 2, which
    leaves column j as it is when b_kj = 0."""
    ck = cvecs[kk]
    new = list(cvecs)
    for j, bkj in enumerate(row_k):
        if bkj:  # b_kk = 0, so column k is not touched here
            a = abs(bkj)
            new[j] = tuple([c + (abs(cik) * bkj + cik * a) // 2 for c, cik in zip(cvecs[j], ck)])
    new[kk] = tuple([-c for c in ck])
    return tuple(new)


def _positions(key: tuple, cvecs) -> Optional[dict]:
    """{c-vector: position} for the seed stored under key, whose c-vectors
    are cvecs, or None when its mutable entries repeat: such a seed records
    no permutation.  The key lists the mutable entries sorted, so a repeat
    sits next to its copy."""
    mutable = key[0]
    if any(a == b for a, b in zip(mutable, mutable[1:])):
        return None
    return {c: i for i, c in enumerate(cvecs)}


def explore(
    s: Seed,
    max_seeds: int = 100000,
    max_depth: int = 64,
) -> MutationClass:
    """Breadth-first closure of a seed under mutation, with canonical
    de-duplication.  Returns a partial class flagged exhausted=False when a
    limit is hit.

    Each undirected edge of the exchange graph is mutated once.  When
    mutating s in direction k gives a seed whose stored representative t is
    P·mu_k(s), for the permutation P that `_assert_matrix_consistency` finds
    (the identity for a new seed), the edge is recorded as pending: direction
    j = P(k) of t leads back to s.  Mutation is an involution that commutes
    with permuting the cluster, so mu_j(t) = P·mu_k(mu_k(s)) = P·s exactly:
    its division is exact, its matrix is valid and it agrees with s under P,
    which are the checks a second mutation would run.  When t is expanded it
    writes each pending direction into the graph at its own loop position,
    so the graph's insertion order is that of a search that mutates every
    direction.  When t's mutable entries repeat there is no unique P, nothing
    is recorded, and that edge is mutated from both ends.

    Only a seed met for the first time costs a Laurent exchange.  Each
    frontier seed carries its c-vectors, the columns of the bottom block C
    of its framed matrix [B; C], with C = I at s, mutated by
    `_mutate_cvecs` as in `is_finite_type`.
    Their sorted tuple determines the abstract seed of the cluster pattern
    with principal coefficients (Fomin-Zelevinsky, "Cluster algebras IV";
    sign-coherence by Derksen-Weyman-Zelevinsky), and with it the abstract
    seed under any coefficients.  An edge first mutates the c-vectors.  If
    their key was met before, the neighbour is that abstract seed again: the
    c-vectors give P, and B alone is mutated and checked against t's matrix
    under P, frozen rows included, as `_assert_matrix_consistency` would.
    Otherwise `mutate_seed` runs as described above, and the stored key and
    P it finds are kept under the c-vector key.

    Skipping the exchange is exact even when the cluster of s is not a free
    generating set.  Send each initial variable x_i to the i-th entry of s,
    a nonzero Laurent polynomial; by the Laurent phenomenon this maps every
    abstract cluster variable into the fraction field of the Laurent
    polynomials.  Exact division in a domain is unique, so each computed
    variable is the image of its abstract variable, whatever path computed
    it.  The same abstract seed thus gives the same cluster, and so the same
    key, along every path, and a division is exact along one path exactly
    when it is along any other: no LaurentPhenomenonError can be skipped.
    Different abstract seeds can still give one key when the cluster is not
    free; their c-vector keys differ, so each runs its own exchange and keeps
    the P that `_assert_matrix_consistency` returns, or None where the
    mutable entries repeat."""
    if max_seeds <= 0 or max_depth <= 0:
        raise ClusterError("limits must be positive")
    m = s.matrix.n_mutable
    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    key0 = s.key()
    seeds = {key0: s}
    graph: dict = {key0: {}}
    order = [key0]
    # sorted c-vectors -> (key, {c-vector: position in the stored seed} or None)
    by_cvecs = {tuple(sorted(identity)): (key0, _positions(key0, identity))}
    pending: dict = {}  # key -> {direction: key}, edges known from the other end
    frontier = [(s, key0, identity)]
    exhausted = True
    depth = 0
    while frontier:
        if depth >= max_depth:
            exhausted = False
            break
        next_frontier = []
        for seed, skey, cvecs in frontier:
            known = pending.pop(skey, {})
            rows = seed.matrix.rows
            for k in range(1, m + 1):
                if k in known:
                    graph[skey][k] = known[k]
                    continue
                kk = k - 1
                new_cvecs = _mutate_cvecs(cvecs, rows[kk], kk)
                ckey = tuple(sorted(new_cvecs))
                met = by_cvecs.get(ckey)
                if met is not None:
                    nkey, positions = met
                    if positions is not None:
                        perm = [positions[c] for c in new_cvecs]
                        _check_permuted(seeds[nkey].matrix.rows, _mutate_rows(rows, kk), perm)
                        pending.setdefault(nkey, {})[perm[kk] + 1] = skey
                else:
                    neighbor = mutate_seed(seed, k)
                    nkey = neighbor.key()
                    stored = seeds.get(nkey)
                    if stored is not None:
                        perm = _assert_matrix_consistency(stored, neighbor)
                        if perm is None:
                            by_cvecs[ckey] = (nkey, None)
                        else:
                            by_cvecs[ckey] = (nkey, dict(zip(new_cvecs, perm)))
                            pending.setdefault(nkey, {})[perm[kk] + 1] = skey
                    else:
                        if len(seeds) >= max_seeds:
                            exhausted = False
                            continue
                        seeds[nkey] = neighbor
                        graph[nkey] = {}
                        order.append(nkey)
                        by_cvecs[ckey] = (nkey, _positions(nkey, new_cvecs))
                        next_frontier.append((neighbor, nkey, new_cvecs))
                        pending[nkey] = {k: skey}
                graph[skey][k] = nkey
        frontier = next_frontier
        depth += 1
        if not exhausted:
            break
    return MutationClass(key0, seeds, graph, order, exhausted)


def is_finite_type(s: Seed, max_seeds: int = 100000, max_depth: int = 64) -> dict:
    """Finite-type detection from the exchange matrix alone; inconclusive
    results carry finite=False, exhausted=False.

    Each seed carries the principal part B and the c-vectors, the columns
    of the bottom block C of the framed matrix [B; C], with C = I at s, so
    that the coefficients are principal at s.  An edge mutates the
    c-vectors by `_mutate_cvecs`, as `explore` does, and B only when the
    edge finds a new seed.  A seed is keyed by its sorted c-vectors, and
    each one must be sign-coherent (Derksen-Weyman-Zelevinsky), or
    ClusterError is raised.
    Cluster variables are counted as distinct g-vectors, which mutation in
    direction k changes by g'_k = -g_k + sum_i [-e b_ik]_+ g_i, with e the
    sign of c_k (Nakanishi-Zelevinsky).  The frontier order, the limits,
    the revisits recorded from the other end and the exhausted rule are
    those of `explore`, so the counts are its counts whenever the cluster of
    s is a free generating set: the class, its seeds and its variables then
    depend on B only.  No cluster entry and no frozen row is read, so a
    cluster that is not free, such as one with a repeated entry, can count
    differently from `explore`.

    >>> from clusterforge.laurent import LaurentPoly
    >>> a2 = Seed(ExchangeMatrix(((0, 1), (-1, 0)), 0),
    ...           tuple(LaurentPoly.variables(("x1", "x2"))), ("x1", "x2"))
    >>> is_finite_type(a2)
    {'finite': True, 'exhausted': True, 'cluster_variable_count': 5, 'cluster_count': 5}
    """
    if max_seeds <= 0 or max_depth <= 0:
        raise ClusterError("limits must be positive")
    m = s.matrix.n_mutable
    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    key0 = tuple(sorted(identity))
    index = {key0: {c: i for i, c in enumerate(identity)}}  # key -> {c-vector: position}
    variables = set(identity)
    pending: dict = {}  # key -> directions known from the other end
    frontier = [(s.matrix.rows[:m], identity, identity, key0)]
    exhausted = True
    depth = 0
    while frontier:
        if depth >= max_depth:
            exhausted = False
            break
        next_frontier = []
        for rows, cvecs, gvecs, key in frontier:
            known = pending.pop(key, ())
            for kk in range(m):
                if kk in known:
                    continue
                new_cvecs = _mutate_cvecs(cvecs, rows[kk], kk)
                nkey = tuple(sorted(new_cvecs))
                stored = index.get(nkey)
                if stored is not None:
                    pending.setdefault(nkey, set()).add(stored[new_cvecs[kk]])
                    continue
                if len(index) >= max_seeds:
                    exhausted = False
                    continue
                for c in new_cvecs:
                    if min(c) < 0 < max(c):
                        raise ClusterError(f"c-vector {c} is not sign-coherent")
                sign = 1 if max(cvecs[kk]) > 0 else -1
                g = [-x for x in gvecs[kk]]
                for row, gi in zip(rows, gvecs):
                    b = -sign * row[kk]
                    if b > 0:
                        g = [x + b * y for x, y in zip(g, gi)]
                new_g = tuple(g)
                variables.add(new_g)
                index[nkey] = {c: i for i, c in enumerate(new_cvecs)}
                next_frontier.append(
                    (_mutate_rows(rows, kk), new_cvecs, gvecs[:kk] + (new_g,) + gvecs[kk + 1 :], nkey)
                )
                pending[nkey] = {kk}
        frontier = next_frontier
        depth += 1
        if not exhausted:
            break
    return {
        "finite": exhausted,
        "exhausted": exhausted,
        "cluster_variable_count": len(variables),
        "cluster_count": len(index),
    }


def cluster_monomials(mc: MutationClass, total_degree_bound: int) -> list[dict]:
    """All monomials in the variables of a single cluster, up to the degree
    bound, de-duplicated as Laurent polynomials across clusters."""
    if not mc.exhausted:
        raise ClusterError("cluster_monomials requires an exhausted mutation class")
    if total_degree_bound < 0:
        raise ClusterError("degree bound must be nonnegative")
    found: dict[LaurentPoly, dict] = {}
    for idx, key in enumerate(mc.order):
        seed = mc.seeds[key]
        d = len(seed.cluster)
        for total in range(total_degree_bound + 1):
            for exps in _compositions(total, d):
                poly = product_of(
                    (seed.cluster[i] ** e for i, e in enumerate(exps) if e),
                    seed.varnames,
                )
                rec = found.get(poly)
                if rec is None:
                    found[poly] = {
                        "monomial": poly,
                        "degree": total,
                        "clusters": [idx],
                    }
                elif idx not in rec["clusters"]:
                    rec["clusters"].append(idx)
    return sorted(found.values(), key=lambda r: (r["degree"], r["monomial"].sort_key()))


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ----------------------------------------------------------------------
# built-in seeds

GRASSMANNIAN_2_5_MATRIX = (
    (0, -1),
    (1, 0),
    (-1, 0),
    (1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
)

GRASSMANNIAN_2_5_LABELS = ("[1,3]", "[1,4]", "[1,2]", "[2,3]", "[3,4]", "[4,5]", "[1,5]")

# Rows are labelled (M7, M8, M4, M5, M6, Q4); columns by the mutable
# directions (M7, M8).
D4_FLAG_MATRIX = (
    (0, 0),
    (0, 0),
    (0, -1),
    (-1, 1),
    (0, -1),
    (1, 0),
)

D4_FLAG_LABELS = ("phi_M7", "phi_M8", "phi_M4", "phi_M5", "phi_M6", "phi_Q4")


def _initial_seed(matrix_rows, n_frozen: int, varnames, labels) -> Seed:
    matrix = ExchangeMatrix(tuple(tuple(r) for r in matrix_rows), n_frozen)
    cluster = tuple(LaurentPoly.variable(v, varnames) for v in varnames)
    return Seed(matrix, cluster, tuple(labels))


def quadric_seed(n: int) -> Seed:
    """Initial seed of the isotropic-cone coordinate ring for C^{2n}, n >= 4.

    Mutable positions hold y_2, ..., y_{n-1}; coefficients are
    y_1, y_n, y_{n+1}, y_{2n} and the quadratic functions p_1, ..., p_{n-3}.
    The matrix is reconstructed from the three exchange-relation shapes
    and validated against them, never asserted as a golden matrix; a
    column-sign ambiguity in the coefficient rows is harmless because the
    principal part is zero and the exchange binomial is sign-symmetric.
    """
    if n < 4:
        raise ClusterError("quadric seed requires n >= 4")
    mutable = [f"y{k}" for k in range(2, n)]
    coeffs = [f"y{1}", f"y{n}", f"y{n + 1}", f"y{2 * n}"] + [
        f"p{s}" for s in range(1, n - 2)
    ]
    varnames = tuple(mutable + coeffs)
    m = len(mutable)
    d = m + len(coeffs)
    coeff_index = {name: m + i for i, name in enumerate(coeffs)}
    cols = []
    for k in range(2, n):
        col = [0] * d
        if k == 2:
            col[coeff_index["p1"]] = 1
            col[coeff_index["y1"]] = -1
            col[coeff_index[f"y{2 * n}"]] = -1
        elif k == n - 1:
            col[coeff_index[f"p{n - 3}"]] = 1
            col[coeff_index[f"y{n}"]] = -1
            col[coeff_index[f"y{n + 1}"]] = -1
        else:
            col[coeff_index[f"p{k - 1}"]] = 1
            col[coeff_index[f"p{k - 2}"]] = -1
        cols.append(col)
    rows = tuple(tuple(cols[j][i] for j in range(m)) for i in range(d))
    return _initial_seed(rows, len(coeffs), varnames, varnames)


def quadric_relation_shape(n: int, k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The two coefficient monomials of the exchange for the pair (y_k, y_{2n+1-k}),
    as sorted tuples of coefficient labels."""
    if k == 2:
        return (("p1",), ("y1", f"y{2 * n}"))
    if k == n - 1:
        return ((f"p{n - 3}",), (f"y{n}", f"y{n + 1}"))
    return ((f"p{k - 1}",), (f"p{k - 2}",))


def grassmannian_2_5_seed() -> Seed:
    varnames = tuple(f"y{i}" for i in range(1, 8))
    return _initial_seed(GRASSMANNIAN_2_5_MATRIX, 5, varnames, GRASSMANNIAN_2_5_LABELS)


def d4_flag_seed(extended: bool = False) -> Seed:
    rows = D4_FLAG_MATRIX + ((1, 0),) if extended else D4_FLAG_MATRIX
    labels = D4_FLAG_LABELS + ("Delta",) if extended else D4_FLAG_LABELS
    varnames = tuple(f"y{i}" for i in range(1, len(rows) + 1))
    n_frozen = len(rows) - 2
    return _initial_seed(rows, n_frozen, varnames, labels)


def builtin_seed(name: str, n: Optional[int] = None) -> Seed:
    """Built-in seeds: quadric(n), grassmannian_2_5, d4_flag, d4_flag_extended."""
    if name == "quadric":
        if n is None:
            raise ClusterError("quadric seed requires the parameter n")
        return quadric_seed(n)
    if name == "grassmannian_2_5":
        return grassmannian_2_5_seed()
    if name == "d4_flag":
        return d4_flag_seed(extended=False)
    if name == "d4_flag_extended":
        return d4_flag_seed(extended=True)
    raise ClusterError(f"unknown builtin seed {name!r}")


def mutation_class_to_dot(mc: MutationClass) -> str:
    """DOT export; nodes are canonical seed keys in discovery order, edges
    are labelled by the mutation direction.  Each unordered pair of seeds is
    emitted once, with the direction first recorded at either end: the
    cluster permutation can number the same edge differently at its two
    ends."""
    index = {key: i for i, key in enumerate(mc.order)}
    lines = ["graph mutation_class {"]
    for key in mc.order:
        seed = mc.seeds[key]
        label = ", ".join(seed.labels[: seed.matrix.n_mutable])
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{index[key]} [label="{label}"];')
    seen = set()
    for src, k, dst in mc.edges():
        a, b = index[src], index[dst]
        edge_id = (min(a, b), max(a, b))
        if edge_id in seen:
            continue
        seen.add(edge_id)
        lines.append(f'  s{a} -- s{b} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
