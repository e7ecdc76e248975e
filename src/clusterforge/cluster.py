"""Seeds, matrix/seed mutation, and mutation-class exploration.

A seed is a d-tuple of cluster variables (Laurent polynomials in the d
initial variables) together with a d x (d-n) exchange matrix whose
principal part (the first d-n rows) is skew-symmetric.  The last n cluster
entries are frozen coefficients and belong to every seed of the class.
Direction indices are 1-based throughout, matching the usual convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Mapping, Optional

from .laurent import InexactDivisionError, LaurentError, LaurentPoly, _is_int, exchange, product_of


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


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass whose fields mutation made from a
    checked instance, built without the checks of its __post_init__:
    mutation keeps the row lengths, the zero diagonal and the
    skew-symmetry of a matrix, and the shared variable names of a
    cluster."""
    self = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(self, name, value)
    return self


def mutate_matrix(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based)."""
    if not 1 <= k <= b.n_mutable:
        raise ClusterError(f"direction {k} out of range [1, {b.n_mutable}]")
    return _unchecked(ExchangeMatrix, rows=_mutate_rows(b.rows, k - 1), n_frozen=b.n_frozen)


def _mutate_rows(rows: tuple[tuple[int, ...], ...], kk: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a matrix mutated in 0-based direction kk:
    b'_ij = -b_ij when i = k or j = k, and otherwise
    b'_ij = b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2,
    which is b_ij + b_ik [sign(b_ik) b_kj]_+.  So a row with b_ik = 0 is
    shared unchanged, and a row with b_ik > 0 (< 0) changes only at the
    positions j with b_kj > 0 (< 0), listed once from row k."""
    row_k = rows[kk]
    # b_kk = 0, so position k is in neither list, and row k is negated after
    pos = [(j, b) for j, b in enumerate(row_k) if b > 0]
    neg = [(j, -b) for j, b in enumerate(row_k) if b < 0]
    new_rows = list(rows)
    for i, row in enumerate(rows):
        bik = row[kk]
        if bik:
            new_row = list(row)
            for j, b in pos if bik > 0 else neg:
                new_row[j] += bik * b
            new_row[kk] = -bik
            new_rows[i] = tuple(new_row)
    new_rows[kk] = tuple([-x for x in row_k])
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
        for i, p in enumerate(self.cluster):
            if p.varnames != names:
                raise ClusterError(f"cluster entry {i} has vars {p.varnames}, entry 0 {names}")

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
        pos, neg = self._exchange_factors(k)
        return (product_of((y ** b for y, b in pos), self.varnames)
                + product_of((y ** b for y, b in neg), self.varnames))

    def _exchange_factors(self, k: int) -> tuple[list, list]:
        """The (y_i, b_ik) pairs with b_ik > 0 and the (y_i, -b_ik) pairs
        with b_ik < 0, in cluster order."""
        pairs = list(zip(self.cluster, self.matrix.column(k)))
        return [(y, b) for y, b in pairs if b > 0], [(y, -b) for y, b in pairs if b < 0]

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
        """Read the form written by to_json; a malformed blob raises
        ClusterError naming the field, and a cluster entry by its index.
        JSON true and false are not integers here."""
        if not isinstance(data, Mapping):
            raise ClusterError("a seed must be a JSON object")
        for key in ("matrix", "n", "cluster"):
            if key not in data:
                raise ClusterError(f"seed is missing the key {key!r}")
        rows, n, blob = data["matrix"], data["n"], data["cluster"]
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(_is_int(x) for x in r) for r in rows
        ):
            raise ClusterError("seed matrix must be a list of integer rows")
        if not _is_int(n) or not 0 <= n <= len(rows):
            raise ClusterError(f"seed n must be an integer from 0 to {len(rows)}, got {n!r}")
        try:
            matrix = ExchangeMatrix(tuple(tuple(r) for r in rows), n)
        except ClusterError as exc:
            raise ClusterError(f"seed matrix: {exc}") from exc
        d = data.get("d", matrix.d)
        if not _is_int(d) or d != matrix.d:
            raise ClusterError(f"seed d is {d!r} but the matrix has {matrix.d} rows")
        if not isinstance(blob, list):
            raise ClusterError("seed cluster must be a list of polynomial objects")
        cluster = []
        for i, p in enumerate(blob):
            try:
                cluster.append(LaurentPoly.from_json(p))
            except LaurentError as exc:
                raise ClusterError(f"seed cluster entry {i}: {exc}") from exc
        if any(p.is_zero for p in cluster):
            raise ClusterError("seed cluster has a zero entry")
        if len(set(cluster)) != len(cluster):
            raise ClusterError("seed cluster has a repeated entry")
        labels = data.get("labels")
        if labels is None:
            labels = [f"y{i + 1}" for i in range(matrix.d)]
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            raise ClusterError("seed labels must be a list of strings")
        return cls(matrix, tuple(cluster), tuple(labels))


def _toggle_star(label: str) -> str:
    return label[:-1] if label.endswith("*") else label + "*"


def mutate_seed(s: Seed, k: int) -> Seed:
    """Seed mutation in direction k: replace y_k by the exchange binomial / y_k.

    The new variable is `laurent.exchange` of y_k and the two factor lists
    of `exchange_binomial`: both products, their sum and the division run
    on packed monomials, and only the quotient is unpacked.  It equals
    s.exchange_binomial(k).div_exact(y_k), and an inexact division raises
    LaurentPhenomenonError with div_exact's message."""
    if not 1 <= k <= s.matrix.n_mutable:
        raise ClusterError(f"direction {k} out of range [1, {s.matrix.n_mutable}]")
    pos, neg = s._exchange_factors(k)
    try:
        new_var = exchange(s.cluster[k - 1], pos, neg)
    except InexactDivisionError as exc:
        raise LaurentPhenomenonError(s, k, str(exc)) from exc
    return _exchanged(s, k, new_var)


def _exchanged(s: Seed, k: int, new_var: LaurentPoly) -> Seed:
    """The mutation of s in direction k, given the new variable y_k'."""
    cluster = list(s.cluster)
    cluster[k - 1] = new_var
    labels = list(s.labels)
    labels[k - 1] = _toggle_star(labels[k - 1])
    return _unchecked(Seed, matrix=mutate_matrix(s.matrix, k), cluster=tuple(cluster),
                      labels=tuple(labels))


@dataclass
class MutationClass:
    """The seeds reachable from an initial seed, up to cluster permutation,
    each under an int id: 0 for the initial seed, the rest numbered in
    discovery order."""

    initial_key: int  # 0
    seeds: dict  # id -> Seed (first representative found)
    graph: dict  # id -> {direction k: id}
    order: list  # ids in BFS discovery order, 0 to n - 1
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

    def edges(self) -> list[tuple[int, int, int]]:
        out = []
        for src in self.order:
            for k, dst in sorted(self.graph[src].items()):
                out.append((src, k, dst))
        return out


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
    and otherwise c'_ij = c_ij + (|c_ik| b_kj + c_ik |b_kj|) / 2.

    c_k must be sign-coherent, with sign e, so that |c_ik| = e c_ik; the
    update is then c'_j = c_j + [e b_kj]_+ c_k, and only the columns j with
    e b_kj > 0 change.  In `_search` this always holds: a frontier node's
    c-vectors are the identity at the root, and `_mutate_gvecs` has checked
    them sign-coherent before any other node is admitted."""
    ck = cvecs[kk]
    e = 1 if max(ck) > 0 else -1
    new = list(cvecs)
    for j, bkj in enumerate(row_k):
        b = e * bkj
        if b > 0:  # b_kk = 0, so column k is not touched here
            new[j] = tuple([c + b * x for c, x in zip(cvecs[j], ck)])
    new[kk] = tuple([-c for c in ck])
    return tuple(new)


def _mutate_gvecs(gvecs, rows, kk: int, cvecs) -> tuple[tuple[int, ...], ...]:
    """The g-vectors mutated in 0-based direction kk, given the rows of B
    and the c-vectors after the mutation: only g_k changes, to
    g'_k = -g_k + sum_i [-e b_ik]_+ g_i, with e the sign of c_k before it
    (Nakanishi-Zelevinsky, "On tropical dualities in cluster algebras").
    Raises ClusterError unless each c-vector is sign-coherent
    (Derksen-Weyman-Zelevinsky), as e would otherwise be undefined."""
    for c in cvecs:
        if min(c) < 0 < max(c):
            raise ClusterError(f"c-vector {c} is not sign-coherent")
    e = 1 if min(cvecs[kk]) < 0 else -1  # c_k before the mutation is -cvecs[kk]
    g = [-x for x in gvecs[kk]]
    for row, gi in zip(rows, gvecs):  # gvecs has m entries, so frozen rows drop out
        b = -e * row[kk]
        if b > 0:
            g = [x + b * y for x, y in zip(g, gi)]
    return gvecs[:kk] + (tuple(g),) + gvecs[kk + 1 :]


def _identity(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def _search(nodes: dict, root: tuple, step, max_seeds: int, max_depth: int, check=None):
    """Breadth-first search of the mutation class of a seed, for `explore`
    and `is_finite_type`.  It stores each node found in nodes, {key: node}
    in discovery order, and returns (graph, exhausted): graph maps a key to
    {direction k: key}, and exhausted is False when a new node past
    max_seeds, or a frontier left at max_depth, cut the search short.

    A node is what the caller's layer keeps for a seed, and its key is a
    small int id in both callers, so the dicts here hash no seed key;
    root is (key, node, rows, perm) for the initial seed, rows being its
    matrix rows.  Frontier nodes carry their c-vectors, the columns of the
    bottom block C of the framed matrix [B; C], with C = I at the root,
    mutated by `_mutate_cvecs` on every edge.  That mutation needs c_k
    sign-coherent, which holds: C = I at the root, and `_mutate_gvecs`
    checks every c-vector of a node before the node is admitted to the
    frontier.  Their sorted tuple, the c-vector key, determines the
    abstract seed of the cluster pattern with principal coefficients
    (Fomin-Zelevinsky, "Cluster algebras IV"; sign-coherence by
    Derksen-Weyman-Zelevinsky), and so the abstract seed under any
    coefficients.  Frontier nodes carry their g-vectors too, G = I at the
    root: the g-vector of a cluster variable names it.  Only a c-vector key
    not met before mutates them, by `_mutate_gvecs`, and calls step(node,
    rows, kk, gvecs) with the neighbour's g-vectors; step mutates in
    0-based direction kk and returns the neighbour's (key, node, rows,
    perm): perm[i] is the position of its i-th entry in the node stored
    under that key, range(m) for a new node, or None where no permutation
    is unique.  The index keeps {c-vector: perm[i]}, or None, for the
    c-vector key, and an edge to a met key calls check(rows, kk, stored
    node, perm), if given, with the perm it gives.

    Each undirected edge is mutated once.  When s mutated in direction k
    gives t = P·mu_k(s), direction j = P(k) of t is recorded as pending
    back to s: mutation is an involution that commutes with permuting the
    cluster, so mu_j(t) = P·s exactly.  Expanding t writes each pending
    direction into the graph at its own loop position, the order of a
    search that mutates every direction.  Where the index holds None
    nothing is recorded, and that edge is mutated from both ends."""
    if max_seeds <= 0 or max_depth <= 0:
        raise ClusterError("limits must be positive")
    key0, node0, rows0, perm0 = root
    m = len(rows0[0]) if rows0 else 0
    identity = _identity(m)
    nodes[key0] = node0
    graph: dict = {key0: {}}
    # sorted c-vectors -> (key, {c-vector: position in the stored node} or None)
    index = {tuple(sorted(identity)): (key0, None if perm0 is None else dict(zip(identity, perm0)))}
    pending: dict = {}  # key -> {direction: key}, edges known from the other end
    frontier = [(node0, key0, rows0, identity, identity)]
    exhausted = True
    depth = 0
    while frontier:
        if depth >= max_depth:
            exhausted = False
            break
        next_frontier = []
        for node, key, rows, cvecs, gvecs in frontier:
            known = pending.pop(key, {})
            edges = graph[key]
            for kk in range(m):
                k = kk + 1
                if k in known:
                    edges[k] = known[k]
                    continue
                new_cvecs = _mutate_cvecs(cvecs, rows[kk], kk)
                ckey = tuple(sorted(new_cvecs))
                met = index.get(ckey)
                if met is not None:
                    nkey, positions = met
                    if positions is not None:
                        if check is not None:
                            check(rows, kk, nodes[nkey], [positions[c] for c in new_cvecs])
                        pending.setdefault(nkey, {})[positions[new_cvecs[kk]] + 1] = key
                else:
                    new_gvecs = _mutate_gvecs(gvecs, rows, kk, new_cvecs)
                    nkey, new_node, new_rows, perm = step(node, rows, kk, new_gvecs)
                    if nkey not in nodes:
                        if len(nodes) >= max_seeds:
                            exhausted = False
                            continue
                        nodes[nkey] = new_node
                        graph[nkey] = {}
                        next_frontier.append((new_node, nkey, new_rows, new_cvecs, new_gvecs))
                        pending[nkey] = {k: key}
                    elif perm is not None:
                        pending.setdefault(nkey, {})[perm[kk] + 1] = key
                    index[ckey] = (nkey, None if perm is None else dict(zip(new_cvecs, perm)))
                edges[k] = nkey
        frontier = next_frontier
        depth += 1
        if not exhausted:
            break
    return graph, exhausted


def explore(
    s: Seed,
    max_seeds: int = 100000,
    max_depth: int = 64,
) -> MutationClass:
    """Breadth-first closure of a seed under mutation, with canonical
    de-duplication.  Returns a partial class flagged exhausted=False when a
    limit is hit.

    The search is `_search`'s, with a Laurent layer: a node is a Seed keyed
    by an int id, interned once per step from its `Seed.key`, and the class
    is returned under those ids, the initial seed as 0.  The step keeps
    {g-vector: cluster variable}, the initial mutable entries first, and a
    new c-vector key costs a Laurent exchange, `mutate_seed`, only when the
    neighbour's new variable has a g-vector not stored; otherwise the
    neighbour is the stored variable in place of entry k, with B mutated
    and label k toggled.  A seed whose mutable entries repeat has no unique
    permutation, None; otherwise a new seed's permutation is the identity,
    and a neighbour that lands on a stored key, as on a cluster that is not
    free, takes the one that matches its entries to the stored seed's,
    with its matrix checked against the stored one under it by
    `_check_permuted`.  An edge to a met c-vector key mutates B alone and
    checks it against the stored matrix under P, frozen rows included.

    Reusing a variable is exact even when the cluster of s is not a free
    generating set.  B is skew-symmetric, so different cluster variables
    have different g-vectors (Derksen-Weyman-Zelevinsky, "Quivers with
    potentials II", Thm 1.7), and with its F-polynomial the g-vector gives
    the variable under any coefficients (the separation formula,
    Fomin-Zelevinsky, "Cluster algebras IV"): a stored g-vector names the
    abstract variable the exchange would compute.  Send each initial
    variable x_i to the i-th entry of s, a nonzero Laurent polynomial; by
    the Laurent phenomenon this maps every abstract cluster variable into
    the fraction field of the Laurent polynomials.  Exact division in a
    domain is unique, so each computed variable is the image of its
    abstract variable, whatever path computed it, and the stored variable
    is the quotient the division would give.  The same abstract seed thus
    gives the same cluster, and so the same key, along every path.  A
    division is exact along one path exactly when it is along any other,
    so an inexact one is never the exchange of a stored variable: the
    first LaurentPhenomenonError is raised at the same exchange as in a
    search that divides on every edge.  Different abstract seeds can still
    give one key when the cluster is not free; their c-vector keys differ,
    so each runs the step."""
    m = s.matrix.n_mutable
    seeds: dict = {}  # id -> Seed
    ids: dict = {}  # Seed.key() -> id, numbered in the order first met
    variables = dict(zip(_identity(m), s.mutable))

    def node(seed: Seed) -> tuple:
        key = seed.key()
        nid = ids.setdefault(key, len(ids))
        stored = seeds.get(nid)
        mutable = key[0]  # sorted, so a repeat sits next to its copy
        if any(a == b for a, b in zip(mutable, mutable[1:])):
            perm = None
        elif stored is None:
            perm = range(m)
        else:
            index = {p: i for i, p in enumerate(stored.mutable)}
            perm = [index[p] for p in seed.mutable]
            _check_permuted(stored.matrix.rows, seed.matrix.rows, perm)
        return nid, seed, seed.matrix.rows, perm

    def check(rows, kk, stored, perm):
        _check_permuted(stored.matrix.rows, _mutate_rows(rows, kk), perm)

    def laurent(seed, rows, kk, gvecs):
        g = gvecs[kk]
        stored = variables.get(g)
        if stored is not None:
            return node(_exchanged(seed, kk + 1, stored))
        neighbour = mutate_seed(seed, kk + 1)
        variables[g] = neighbour.cluster[kk]
        return node(neighbour)

    graph, exhausted = _search(seeds, node(s), laurent, max_seeds, max_depth, check)
    return MutationClass(0, seeds, graph, list(seeds), exhausted)


def is_finite_type(s: Seed, max_seeds: int = 100000, max_depth: int = 64) -> dict:
    """Finite-type detection from the exchange matrix alone; inconclusive
    results carry finite=False, exhausted=False.

    The search is `_search`'s, with an integer layer: a node is the tuple
    of g-vectors that `_search` passes, keyed by its discovery number, with
    the principal part B as its rows, mutated only for a new seed that the
    search admits (none past max_seeds) and not checked on a met c-vector
    key.  `_search` runs the g-vector recursion
    (`_mutate_gvecs`) and raises ClusterError for a c-vector that is not
    sign-coherent.  Cluster variables are counted as distinct g-vectors.
    The counts are `explore`'s whenever the cluster of s is a free
    generating set, as the class then depends on B only; a cluster that is
    not free, such as one with a repeated entry, can count differently.

    >>> from clusterforge.laurent import LaurentPoly
    >>> a2 = Seed(ExchangeMatrix(((0, 1), (-1, 0)), 0),
    ...           tuple(LaurentPoly.variables(("x1", "x2"))), ("x1", "x2"))
    >>> is_finite_type(a2)
    {'finite': True, 'exhausted': True, 'cluster_variable_count': 5, 'cluster_count': 5}
    """
    m = s.matrix.n_mutable
    nodes: dict = {}

    def integer(node, rows, kk, gvecs):
        # A new c-vector key is a new seed here, which `_search` refuses at
        # max_seeds: its matrix is never read, so it is not mutated.
        new_rows = _mutate_rows(rows, kk) if len(nodes) < max_seeds else None
        return len(nodes), gvecs, new_rows, range(m)

    root = (0, _identity(m), s.matrix.rows[:m], range(m))
    exhausted = _search(nodes, root, integer, max_seeds, max_depth)[1]
    return {
        "finite": exhausted,
        "exhausted": exhausted,
        "cluster_variable_count": len({g for gvecs in nodes.values() for g in gvecs}),
        "cluster_count": len(nodes),
    }


def cluster_monomials(mc: MutationClass, total_degree_bound: int) -> list[dict]:
    """All monomials in the variables of a single cluster, up to the degree
    bound, de-duplicated as Laurent polynomials across clusters."""
    if not mc.exhausted:
        raise ClusterError("cluster_monomials requires an exhausted mutation class")
    if total_degree_bound < 0:
        raise ClusterError("degree bound must be nonnegative")
    # A product is keyed by the sorted ids of its factors, so it is formed
    # once however many clusters hold it; found de-duplicates the products.
    ids: dict[LaurentPoly, int] = {}
    by_factors: dict[tuple[int, ...], dict] = {}
    found: dict[LaurentPoly, dict] = {}
    for idx, seed in mc.seeds.items():
        cluster_ids = [ids.setdefault(x, len(ids)) for x in seed.cluster]
        for total in range(total_degree_bound + 1):
            for positions in combinations_with_replacement(range(len(cluster_ids)), total):
                key = tuple(sorted(cluster_ids[p] for p in positions))
                rec = by_factors.get(key)
                if rec is None:
                    poly = product_of([seed.cluster[p] for p in positions], seed.varnames)
                    rec = found.setdefault(poly, {"monomial": poly, "degree": total, "clusters": [idx]})
                    by_factors[key] = rec
                if rec["clusters"][-1] != idx:
                    rec["clusters"].append(idx)
    return sorted(found.values(), key=lambda r: (r["degree"], r["monomial"].sort_key()))


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
    """DOT export; node s<i> is the seed with id i, in discovery order, and
    edges are labelled by the mutation direction.  Each unordered pair of
    seeds is emitted once, with the direction first recorded at either end:
    the cluster permutation can number the same edge differently at its two
    ends."""
    lines = ["graph mutation_class {"]
    for key in mc.order:
        seed = mc.seeds[key]
        label = ", ".join(seed.labels[: seed.matrix.n_mutable])
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{key} [label="{label}"];')
    seen = set()
    for a, k, b in mc.edges():
        edge_id = (min(a, b), max(a, b))
        if edge_id in seen:
            continue
        seen.add(edge_id)
        lines.append(f'  s{a} -- s{b} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
