"""Preprojective algebras of Dynkin type and their finite-dimensional modules.

The double quiver replaces each Dynkin edge {i,j} (oriented here as i<j) by
arrows a: i->j and a*: j->i.  The defining relation, localized at a vertex
v, is the signed sum of the back-and-forth composites through v's
neighbours; `DoubleQuiver.relation` holds its terms and fixes the signs.
Every quantity this package reports (dimensions, Hom, Ext, filtration
layers) is invariant under that choice of signs.

The algebra basis is built one degree at a time, and each degree keeps one
append table: basis path k followed by arrow a, written in the basis of the
next degree.  Each (source, target) block of these composites is row-reduced
against its relation rows; the non-pivot ones become the next degree's
basis, until a degree vanishes.  Injectives are realized as duals of the
right projectives e_i Lambda and read their maps from the table; none is
hard-coded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .cluster import ExchangeMatrix
from .fields import QQ
from .linalg import (
    Matrix,
    coordinates,
    is_invertible,
    mat_mul,
    mat_vec,
    nullspace,
    rref,
    zero_matrix,
)


class PrepmodError(Exception):
    pass


class ResourceCapError(PrepmodError):
    """The algebra-basis computation exceeded the desk-scale cap."""


# ----------------------------------------------------------------------
# quivers


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class DoubleQuiver:
    """Double quiver of a simply-laced Dynkin diagram."""

    kind: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        arrows = []
        relation = {v: [] for v in self.vertices}
        for i, j in self.edges:
            fwd, back = len(arrows), len(arrows) + 1
            arrows.append(Arrow(f"{i}->{j}", i, j))
            arrows.append(Arrow(f"{j}->{i}", j, i))
            relation[i].append((1, back, fwd))
            relation[j].append((-1, fwd, back))
        table = {
            "_arrows": tuple(arrows),
            "_arrow_index": {a.name: k for k, a in enumerate(arrows)},
            "_vertex_index": {v: k for k, v in enumerate(self.vertices)},
            "_from": {v: tuple(a for a in arrows if a.source == v) for v in self.vertices},
            "_into": {v: tuple(a for a in arrows if a.target == v) for v in self.vertices},
            "_relation": {v: tuple(terms) for v, terms in relation.items()},
        }
        for name, value in table.items():
            object.__setattr__(self, name, value)

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self._arrows

    def arrow_position(self, name: str) -> int:
        return self._arrow_index[name]

    def vertex_index(self, v: int) -> int:
        return self._vertex_index[v]

    def arrows_from(self, v: int) -> tuple[Arrow, ...]:
        return self._from[v]

    def arrows_into(self, v: int) -> tuple[Arrow, ...]:
        return self._into[v]

    def relation(self, v: int) -> tuple[tuple[int, int, int], ...]:
        """The preprojective relation at v as (sign, outer, inner) terms:
        the relation reads sum sign * M(outer) M(inner) = 0, with outer and
        inner positions in `arrows`.  An edge {i,j}, i < j, gives the term
        (+1, j->i, i->j) at i and (-1, i->j, j->i) at j, i.e. back-and-forth
        composites through higher-numbered neighbours count +1 and through
        lower-numbered ones -1."""
        return self._relation[v]

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


def dynkin_edges(letter: str, rank: int) -> tuple[tuple[int, int], ...]:
    """Edge lists for the simply-laced diagrams.

    Type D uses the labelling with external nodes 1, 2 attached to the
    central node 3 and the tail 3-4-...-n; for D_4 the external nodes are
    1, 2, 4 and the central node is 3.
    """
    if letter == "A":
        return tuple((i, i + 1) for i in range(1, rank))
    if letter == "D":
        if rank < 4:
            raise PrepmodError("type D needs rank >= 4")
        return ((1, 3), (2, 3)) + tuple((i, i + 1) for i in range(3, rank))
    if letter == "E":
        if rank not in (6, 7, 8):
            raise PrepmodError("type E needs rank 6, 7 or 8")
        chain = [(1, 3), (3, 4), (4, 5), (5, 6)] + [(i, i + 1) for i in range(6, rank)]
        return tuple(sorted(chain + [(2, 4)]))
    raise PrepmodError(f"unsupported Dynkin letter {letter!r}")


@lru_cache(maxsize=None)
def dynkin_quiver(kind: str) -> DoubleQuiver:
    """Build the double quiver from a type string like "A3" or "D4"."""
    letter, digits = kind[:1].upper(), kind[1:]
    if not digits.isdecimal() or int(digits) < 1:
        raise PrepmodError(
            f"cannot read a Dynkin type from {kind!r}; expected A<n>, D<n> or E<n> with n >= 1"
        )
    rank = int(digits)
    edges = dynkin_edges(letter, rank)
    return DoubleQuiver(f"{letter}{rank}", tuple(range(1, rank + 1)), edges)


def cartan_pairing(quiver: DoubleQuiver, d: Sequence[int], e: Sequence[int]) -> int:
    """Symmetrized Cartan form: (e_i,e_i)=2, (e_i,e_j)=-1 on edges, else 0."""
    total = sum(2 * a * b for a, b in zip(d, e))
    for i, j in quiver.edges:
        ii, jj = quiver.vertex_index(i), quiver.vertex_index(j)
        total -= d[ii] * e[jj] + d[jj] * e[ii]
    return total


def positive_root_count(quiver: DoubleQuiver, vertices: Sequence[int]) -> int:
    """Number of positive roots of the sub-diagram induced on the given
    vertices, by reflection closure of the simple roots."""
    verts = sorted(set(vertices))
    if not verts:
        return 0
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in quiver.edges:
        if i in index and j in index:
            cartan[index[i]][index[j]] = -1
            cartan[index[j]][index[i]] = -1
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for alpha in frontier:
            for j in range(n):
                pairing = sum(cartan[j][k] * alpha[k] for k in range(n))
                beta = tuple(
                    a - (pairing if k == j else 0) for k, a in enumerate(alpha)
                )
                if beta not in roots:
                    roots.add(beta)
                    nxt.append(beta)
        frontier = nxt
        if len(roots) > 10000:
            raise ResourceCapError("root-system closure did not terminate")
    return sum(1 for r in roots if all(c >= 0 for c in r) and any(r))


# ----------------------------------------------------------------------
# representations


def _map_entry(arrow: str, x):
    try:
        return QQ.coerce(x)
    except (ValueError, ZeroDivisionError):
        raise PrepmodError(f"map {arrow} entry {x!r} is not a rational number") from None


@dataclass(frozen=True)
class QuiverRep:
    """A finite-dimensional representation of the double quiver.

    dims is indexed by quiver.vertices order; maps is a tuple parallel to
    quiver.arrows, each matrix a tuple of row tuples of shape (target_dim,
    source_dim).  Values are immutable; never mutate the tuples.  Because
    the maps are tuples, a module is hashable and compares by its quiver,
    field, dims and map entries; the phi memo (`phi.FlagCounter`) keys on
    it.
    """

    quiver: DoubleQuiver
    field: object
    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]

    def dim(self, v: int) -> int:
        return self.dims[self.quiver.vertex_index(v)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def map_of(self, arrow: Arrow) -> Matrix:
        return self.maps[self.quiver.arrow_position(arrow.name)]

    def to_json(self) -> dict:
        return {
            "type": self.quiver.kind,
            "dims": {str(v): self.dim(v) for v in self.quiver.vertices},
            "maps": {
                a.name: [[str(x) for x in row] for row in m]
                for a, m in zip(self.quiver.arrows, self.maps)
            },
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "QuiverRep":
        """Read the form written by to_json.  Raises PrepmodError on a
        malformed blob and on a module that violates the preprojective
        relation."""
        if not isinstance(data, Mapping):
            raise PrepmodError("a module must be a JSON object")
        for key in ("type", "dims"):
            if key not in data:
                raise PrepmodError(f"module is missing the key {key!r}")
        kind = data["type"]
        if not isinstance(kind, str):
            raise PrepmodError(f"module type must be a string, got {kind!r}")
        quiver = dynkin_quiver(kind)
        dims_blob, maps_blob = data["dims"], data.get("maps", {})
        for field, blob, names in (
            ("dims", dims_blob, [str(v) for v in quiver.vertices]),
            ("maps", maps_blob, [a.name for a in quiver.arrows]),
        ):
            if not isinstance(blob, Mapping):
                raise PrepmodError(f"module {field} must be a JSON object")
            unknown = sorted(set(blob) - set(names))
            if unknown:
                raise PrepmodError(
                    f"module {field} has unknown keys {unknown}; {quiver.kind} allows {names}"
                )
        dims = tuple(dims_blob.get(str(v), 0) for v in quiver.vertices)
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
            raise PrepmodError(f"module dims must be integers, got {list(dims)}")
        if any(d < 0 for d in dims):
            raise PrepmodError(f"negative dimension in {dims}")
        maps = []
        for a in quiver.arrows:
            rows = maps_blob.get(a.name)
            tdim = dims[quiver.vertex_index(a.target)]
            sdim = dims[quiver.vertex_index(a.source)]
            if rows is None:
                maps.append(zero_matrix(tdim, sdim))
                continue
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise PrepmodError(f"map {a.name} must be a list of rows")
            # QQ.coerce would read a float as its binary expansion and a bool as 0 or 1
            bad = [x for row in rows for x in row
                   if isinstance(x, bool) or not isinstance(x, (int, str))]
            if bad:
                raise PrepmodError(
                    f"map {a.name} entries must be integers or strings, got {bad[0]!r}"
                )
            matrix = tuple(tuple(_map_entry(a.name, x) for x in row) for row in rows)
            if len(matrix) != tdim or any(len(row) != sdim for row in matrix):
                raise PrepmodError(
                    f"map {a.name} has the wrong shape; expected {tdim} x {sdim}"
                )
            maps.append(matrix)
        rep = cls(quiver, QQ, dims, tuple(maps))
        holds, vertex = check_relation(rep)
        if not holds:
            raise PrepmodError(f"module violates the preprojective relation at vertex {vertex}")
        return rep


def zero_rep(quiver: DoubleQuiver, field=QQ) -> QuiverRep:
    dims = (0,) * len(quiver.vertices)
    maps = ((),) * len(quiver.arrows)
    return QuiverRep(quiver, field, dims, maps)


def simple_rep(quiver: DoubleQuiver, i: int, field=QQ) -> QuiverRep:
    dims = tuple(1 if v == i else 0 for v in quiver.vertices)
    maps = tuple(
        zero_matrix(dims[quiver.vertex_index(a.target)], dims[quiver.vertex_index(a.source)])
        for a in quiver.arrows
    )
    return QuiverRep(quiver, field, dims, maps)


def direct_sum(*reps: QuiverRep) -> QuiverRep:
    if not reps:
        raise PrepmodError("direct_sum of no modules")
    quiver, field = reps[0].quiver, reps[0].field
    for r in reps:
        if r.quiver is not quiver and r.quiver != quiver:
            raise PrepmodError("direct sum over different quivers")
        if r.field != field:
            raise PrepmodError(f"direct sum over different fields {field!r} and {r.field!r}")
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(len(quiver.vertices)))
    maps = []
    for ai, a in enumerate(quiver.arrows):
        ti = quiver.vertex_index(a.target)
        si = quiver.vertex_index(a.source)
        block = [[0] * dims[si] for _ in range(dims[ti])]
        roff = coff = 0
        for r in reps:
            m = r.maps[ai]
            for x in range(r.dims[ti]):
                for y in range(r.dims[si]):
                    block[roff + x][coff + y] = m[x][y]
            roff += r.dims[ti]
            coff += r.dims[si]
        maps.append(tuple(tuple(row) for row in block))
    return QuiverRep(quiver, field, dims, tuple(maps))


def check_relation(rep: QuiverRep) -> tuple[bool, Optional[int]]:
    """True iff the preprojective relation holds at every vertex; on failure
    the witness vertex is returned."""
    q, F = rep.quiver, rep.field
    for v in q.vertices:
        dv = rep.dim(v)
        # a term through a zero-dimensional vertex is zero, and () hides its column count
        terms = [(sign, mat_mul(F, rep.maps[outer], rep.maps[inner]))
                 for sign, outer, inner in q.relation(v) if rep.dim(q.arrows[inner].target)]
        for x in range(dv):
            if any(F.reduce([sum(sign * t[x][y] for sign, t in terms) for y in range(dv)])):
                return False, v
    return True, None


def dual(rep: QuiverRep) -> QuiverRep:
    """The k-dual D(rep) = Hom_k(rep, k), a module again since the
    preprojective algebra is isomorphic to its opposite: arrow i->j carries
    the transpose of rep's map on j->i.  Each relation term at a vertex is
    the transpose of rep's term there, so D(rep) satisfies the relation, and
    D(D(rep)) == rep.  The socle of D(rep) is dual to the top of rep.

    >>> q1 = build_algebra_basis("A2").injective(1)
    >>> [len(socle_basis_at(dual(q1), v)) for v in q1.quiver.vertices]
    [0, 1]
    """
    q = rep.quiver
    maps = []
    for a in q.arrows:
        # a map with no rows is (), which hides its column count
        m = rep.maps[q.arrow_position(f"{a.target}->{a.source}")]
        maps.append(tuple(zip(*m)) if m else ((),) * rep.dim(a.target))
    return QuiverRep(q, rep.field, rep.dims, tuple(maps))


def is_nilpotent(rep: QuiverRep) -> bool:
    """The total path action is nilpotent (automatic in Dynkin type): the
    socle series exhausts rep."""
    return sum(map(sum, socle_series(rep))) == rep.total_dim


# ----------------------------------------------------------------------
# socle, top, filtrations


def socle_basis_at(rep: QuiverRep, v: int) -> list:
    """Basis vectors of the S_v-isotypic socle part: the joint kernel of the
    outgoing arrow maps at v."""
    rows = tuple(row for a in rep.quiver.arrows_from(v) for row in rep.map_of(a))
    return nullspace(rep.field, rows, rep.dim(v))


def radical_basis_at(rep: QuiverRep, v: int) -> list:
    """Basis vectors of the image of the incoming arrow maps at v: the first
    linearly independent columns of those maps, in arrow order."""
    maps = (rep.map_of(a) for a in rep.quiver.arrows_into(v))
    stacked = tuple(sum(rows, ()) for rows in zip(*maps))
    columns = tuple(zip(*stacked))
    return [columns[c] for c in rref(rep.field, stacked)[1]]


def socle_top(rep: QuiverRep) -> dict:
    """Multiplicities of each simple in the top and in the socle; the top
    is read as the socle of the dual."""
    d, vertices = dual(rep), rep.quiver.vertices
    return {"top": tuple(len(socle_basis_at(d, v)) for v in vertices),
            "socle": tuple(len(socle_basis_at(rep, v)) for v in vertices)}


def sub_rep(rep: QuiverRep, spans: Mapping[int, Sequence[Sequence]]) -> QuiverRep:
    """Submodule spanned at each vertex v by the linearly independent row
    vectors spans[v], with its maps written in the coordinates of those
    vectors; a vertex missing from spans keeps its whole space (the kernel
    of no equations).  Raises PrepmodError if the spans are not arrow-stable.

    Only an arrow into a cut vertex is solved for its coordinates: at a
    whole vertex the coordinates of the images are their entries, and an
    arrow between whole vertices keeps its map."""
    q, F = rep.quiver, rep.field
    basis = {v: spans[v] if v in spans else nullspace(F, (), rep.dim(v)) for v in q.vertices}
    dims = tuple(len(basis[v]) for v in q.vertices)
    maps = []
    for a, m in zip(q.arrows, rep.maps):
        if a.source not in spans and a.target not in spans:
            maps.append(m)
            continue
        images = [mat_vec(F, m, u) for u in basis[a.source]]
        if a.target in spans:
            coords = coordinates(F, basis[a.target], images)
            if coords is None:
                raise PrepmodError(f"subspaces not stable under arrow {a.name}")
        else:
            # images as columns; with no images still one empty row per coordinate
            coords = tuple(tuple(u[r] for u in images) for r in range(rep.dim(a.target)))
        maps.append(coords)
    return QuiverRep(q, F, dims, tuple(maps))


def quotient_rep(rep: QuiverRep, spans: Mapping[int, Sequence[Sequence]]) -> QuiverRep:
    """Quotient by the submodule spanned at each vertex v by the row
    vectors spans[v] (the spans must be arrow-stable; this is not checked).

    At a cut vertex the quotient keeps the coordinates that are not pivot
    columns of the rref of the vectors.  An arrow out of the vertex drops
    the pivot columns; an arrow into it replaces each kept row c by
    m[c] - sum_r red[r][c] m[pivot_r], which reduces the image modulo the
    span.  These are the entries of P m S for the projection P along the
    span and the section S onto the kept coordinates."""
    q, F = rep.quiver, rep.field
    cuts = {}
    for v, vecs in spans.items():
        if vecs:
            red, pivots = rref(F, tuple(vecs))
            if pivots:
                kept = [c for c in range(rep.dim(v)) if c not in pivots]
                cuts[v] = (red, pivots, kept)
    dims = tuple(len(cuts[v][2]) if v in cuts else d for v, d in zip(q.vertices, rep.dims))
    maps = []
    for a, m in zip(q.arrows, rep.maps):
        if a.source in cuts:
            kept = cuts[a.source][2]
            m = tuple(tuple(row[c] for c in kept) for row in m)
        if a.target in cuts:
            red, pivots, kept = cuts[a.target]
            rows = []
            for c in kept:
                row = m[c]
                for r, pc in enumerate(pivots):
                    coeff = red[r][c]
                    if coeff:
                        row = [x - coeff * y for x, y in zip(row, m[pc])]
                rows.append(row if row is m[c] else tuple(F.reduce(row)))
            m = tuple(rows)
        maps.append(m)
    return QuiverRep(q, F, dims, tuple(maps))


def socle_series(rep: QuiverRep) -> tuple[tuple[int, ...], ...]:
    """Layer dimension vectors of the socle filtration, socle first."""
    layers = []
    current = rep
    guard = rep.total_dim + 1
    while not current.is_zero and guard:
        bases = {v: socle_basis_at(current, v) for v in current.quiver.vertices}
        layers.append(tuple(len(vecs) for vecs in bases.values()))
        current = quotient_rep(current, bases)
        guard -= 1
    return tuple(layers)


def radical_series(rep: QuiverRep) -> tuple[tuple[int, ...], ...]:
    """Layer dimension vectors of the radical filtration, top first: layer
    k of rep's radical series is layer k of the dual's socle series."""
    return socle_series(dual(rep))


# ----------------------------------------------------------------------
# the functors removing top / socle isotypic parts


def functor_E(rep: QuiverRep, i: int) -> QuiverRep:
    """Kernel of the projection onto the S_i-isotypic part of the top."""
    bases = {i: radical_basis_at(rep, i)}
    return sub_rep(rep, bases)


def functor_E_dagger(rep: QuiverRep, i: int) -> QuiverRep:
    """Quotient by the S_i-isotypic part of the socle."""
    vecs = socle_basis_at(rep, i)
    if not vecs:
        return rep
    return quotient_rep(rep, {i: vecs})


def functor_E_word(rep: QuiverRep, letters: Sequence[int], dagger: bool = False) -> QuiverRep:
    """Composite functor along a word s_{i_1} ... s_{i_k}.

    The composition is read as written, so the last letter acts first; this
    order is pinned by the worked D_4 construction (and by the fact that
    the last occurrence of each letter in a reduced word for w_0 must kill
    the corresponding injective).
    """
    bad = sorted(set(letters) - set(rep.quiver.vertices))
    if bad:
        raise PrepmodError(f"letters {bad} are not vertices of {rep.quiver.kind}")
    f = functor_E_dagger if dagger else functor_E
    current = rep
    for i in reversed(tuple(letters)):
        current = f(current, i)
    return current


# ----------------------------------------------------------------------
# Hom, Ext, rigidity


def hom_basis(m: QuiverRep, n: QuiverRep) -> list[tuple[Matrix, ...]]:
    """Basis of the intertwiner space Hom(m, n): per-vertex matrix tuples."""
    if m.quiver != n.quiver:
        raise PrepmodError("Hom between modules over different quivers")
    q, F = m.quiver, m.field
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dim(v) * m.dim(v)
    rows = []
    for a in q.arrows:
        s, t = a.source, a.target
        ma, na = m.map_of(a), n.map_of(a)
        # equation f_t m_a - n_a f_s = 0, entries indexed by (x, y)
        for x in range(n.dim(t)):
            for y in range(m.dim(s)):
                row = [0] * total
                for k in range(m.dim(t)):
                    row[offsets[t] + x * m.dim(t) + k] += ma[k][y]
                for k in range(n.dim(s)):
                    row[offsets[s] + k * m.dim(s) + y] -= na[x][k]
                row = F.reduce(row)
                if any(row):
                    rows.append(tuple(row))
    out = []
    for vec in nullspace(F, tuple(rows), total):
        per_vertex = []
        for v in q.vertices:
            block = []
            for x in range(n.dim(v)):
                base = offsets[v] + x * m.dim(v)
                block.append(tuple(vec[base : base + m.dim(v)]))
            per_vertex.append(tuple(block))
        out.append(tuple(per_vertex))
    return out


def hom_dim(m: QuiverRep, n: QuiverRep) -> int:
    """Dimension of the intertwiner space Hom(m, n)."""
    return len(hom_basis(m, n))


def ext1_dim(m: QuiverRep, n: QuiverRep) -> int:
    """dim Ext^1 via hom_dim(m,n) + hom_dim(n,m) - (dim m, dim n).

    Valid for nilpotent representations satisfying the defining relation; a
    negative value signals a relation-violating input and aborts.
    """
    hom_mn = hom_dim(m, n)
    hom_nm = hom_mn if n is m else hom_dim(n, m)
    value = hom_mn + hom_nm - cartan_pairing(m.quiver, m.dims, n.dims)
    if value < 0:
        raise PrepmodError(
            f"negative Ext dimension {value}; inputs violate the defining relation"
        )
    return value


def is_rigid(m: QuiverRep) -> bool:
    return ext1_dim(m, m) == 0


def fingerprint(rep: QuiverRep) -> tuple:
    """Cheap iso-invariants: dimension vector plus socle and radical
    filtration layers.  A reduction mod p whose fingerprint differs marks p
    as a bad prime, and differing fingerprints certify non-isomorphism."""
    return (rep.dims, socle_series(rep), radical_series(rep))


def is_isomorphic(m: QuiverRep, n: QuiverRep) -> bool:
    """Las Vegas isomorphism test.

    False on a certificate (dimension vectors or socle/radical layers
    differ, or Hom(m, n) is zero); True when an invertible intertwiner is
    found among 8 random combinations of a Hom basis, coefficients drawn
    from [-99, 99] by Random(0); False when none of them is invertible.
    With rational coefficients the chance of missing an existing
    isomorphism is below dim/199 per try.  Modules over different quivers
    or fields raise PrepmodError.
    """
    if m.quiver != n.quiver:
        raise PrepmodError("isomorphism between modules over different quivers")
    if m.field != n.field:
        raise PrepmodError(f"isomorphism between modules over {m.field!r} and {n.field!r}")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0 or m.maps == n.maps:
        return True
    if fingerprint(m) != fingerprint(n):
        return False
    basis = hom_basis(m, n)
    if not basis:
        return False
    F = m.field

    def combination(coeffs, vi, dv):
        block = [[0] * dv for _ in range(dv)]
        for c, h in zip(coeffs, basis):
            if c:
                for x, row in enumerate(h[vi]):
                    for y, e in enumerate(row):
                        block[x][y] += c * e
        return tuple(tuple(F.reduce(r)) for r in block)

    rng = random.Random(0)
    for _ in range(8):
        coeffs = tuple(F.coerce(rng.randint(-99, 99)) for _ in basis)
        if any(coeffs) and all(
            is_invertible(F, combination(coeffs, vi, dv))
            for vi, dv in enumerate(m.dims) if dv
        ):
            return True
    return False


# ----------------------------------------------------------------------
# the algebra basis and injectives


# desk-scale caps on the algebra basis; past them ResourceCapError
MAX_DEGREE = 40
MAX_DIM = 20000


@dataclass(frozen=True)
class BasisPath:
    source: int
    target: int
    arrows: tuple[str, ...]  # in application order; empty for trivial paths
    prefix: Optional[int] = None  # index of arrows[:-1] among the paths one degree lower


class PreprojectiveAlgebra:
    """Linear basis of the preprojective algebra, one append table per degree.

    basis_by_degree[d] lists the basis paths of degree d; table[d] maps
    (k, a), basis path k of degree d followed by arrow name a, to its class
    in degree d + 1 as {basis index: coefficient}.  The relation rows of a
    (source, target) block of these candidates are the relation at v applied
    to each degree d - 1 path ending at v.  Blocks go in sorted order and
    candidates arrow-major, then by path index; that fixes the basis order.
    """

    def __init__(self, quiver: DoubleQuiver):
        self.quiver = quiver
        self.basis_by_degree = [[BasisPath(v, v, ()) for v in quiver.vertices]]
        self.table: list[dict[tuple[int, str], dict[int, Fraction]]] = []
        self._classes: dict[str, dict] = {}  # arrow name -> {(d, k): class}, see _class_after
        arrows = quiver.arrows
        while True:
            degree = len(self.table)
            if degree >= MAX_DEGREE:
                raise ResourceCapError(f"no vanishing by degree {MAX_DEGREE}")
            paths = self.basis_by_degree[degree]
            blocks: dict[tuple[int, int], list[tuple[int, str]]] = {}
            for a in arrows:
                for k, p in enumerate(paths):
                    if p.target == a.source:
                        blocks.setdefault((p.source, a.target), []).append((k, a.name))
            rows = {key: [] for key in blocks}
            for k, p in enumerate(self.basis_by_degree[degree - 1] if degree else ()):
                row = {}
                for sign, outer, inner in quiver.relation(p.target):
                    for j, c in self.table[degree - 1][k, arrows[inner].name].items():
                        cand = (j, arrows[outer].name)
                        row[cand] = row.get(cand, 0) + sign * c
                if any(row.values()):
                    rows[p.source, p.target].append(row)
            level, new = {}, []
            for key in sorted(blocks):
                cands = blocks[key]
                red, pivots = rref(QQ, tuple(tuple(row.get(c, 0) for c in cands) for row in rows[key]))
                free = sorted(set(range(len(cands))) - set(pivots))
                for n, f in enumerate(free, start=len(new)):
                    level[cands[f]] = {n: 1}
                for row, c in zip(red, pivots):
                    level[cands[c]] = {n: -row[f] for n, f in enumerate(free, start=len(new)) if row[f]}
                new += [BasisPath(*key, paths[k].arrows + (name,), k) for k, name in (cands[f] for f in free)]
            self.table.append(level)
            if not new:
                break
            self.basis_by_degree.append(new)
            if self.dimension > MAX_DIM:
                raise ResourceCapError(f"algebra dimension exceeded {MAX_DIM}")

    @property
    def dimension(self) -> int:
        return sum(len(b) for b in self.basis_by_degree)

    @property
    def loewy_length(self) -> int:
        return len(self.basis_by_degree)

    def injective(self, i: int) -> QuiverRep:
        """Q_i as the dual of the right projective e_i Lambda.

        The space at vertex j is dual to the span of the basis paths j -> i.
        Arrow a acts by dualized right multiplication: the entry at row p,
        column b is the coefficient of b in the class of a followed by p.
        """
        q = self.quiver
        if i not in q.vertices:
            raise PrepmodError(f"vertex {i} not in quiver")
        handles = {
            v: [(d, k) for d, paths in enumerate(self.basis_by_degree)
                for k, p in enumerate(paths) if p.source == v and p.target == i]
            for v in q.vertices
        }
        maps = []
        for a in q.arrows:
            column = {h: c for c, h in enumerate(handles[a.source])}
            m = [[0] * len(column) for _ in handles[a.target]]
            for row, (d, k) in zip(m, handles[a.target]):
                for j, c in self._class_after(a, d, k).items():
                    row[column[d + 1, j]] = c
            maps.append(tuple(map(tuple, m)))
        return QuiverRep(q, QQ, tuple(len(handles[v]) for v in q.vertices), tuple(maps))

    def _class_after(self, a: Arrow, d: int, k: int) -> dict[int, Fraction]:
        """The class in degree d + 1 of arrow a followed by basis path k of
        degree d: one table step from the class of a followed by the path's
        prefix.  Memoised per arrow, so all injectives share the classes."""
        classes = self._classes.setdefault(a.name, {})
        if (d, k) not in classes:
            if d == 0:
                classes[d, k] = self.table[0][self.quiver.vertex_index(a.source), a.name]
            else:
                p = self.basis_by_degree[d][k]
                vec: dict[int, Fraction] = {}
                for j, c in self._class_after(a, d - 1, p.prefix).items():
                    for n, x in self.table[d][j, p.arrows[-1]].items():
                        vec[n] = vec.get(n, 0) + c * x
                classes[d, k] = vec
        return classes[d, k]


@lru_cache(maxsize=None)
def build_algebra_basis(kind: str) -> PreprojectiveAlgebra:
    """Build (and cache) the algebra for a type string like "D4"."""
    return PreprojectiveAlgebra(dynkin_quiver(kind))


# ----------------------------------------------------------------------
# complete rigid modules from reduced words


D4_RIGID_WORD = (1, 3, 1, 2, 3, 1, 4, 3, 1, 2, 3, 4)


def first_unreduced_position(quiver: DoubleQuiver, letters: Sequence[int]) -> Optional[int]:
    """The least p such that letters[:p] is not a reduced word of the Weyl
    group, or None when the whole word is reduced.  A reduced prefix
    s_1 ... s_{p-1} extends to a reduced one by s_p iff it maps the simple
    root of s_p to a positive root, so each letter's simple root is
    reflected back through the letters before it."""
    for p in range(len(letters)):
        root = [0] * len(quiver.vertices)
        root[quiver.vertex_index(letters[p])] = 1
        for v in reversed(letters[:p]):
            i = quiver.vertex_index(v)
            neighbours = sum(root[quiver.vertex_index(a.target)] for a in quiver.arrows_from(v))
            root[i] = neighbours - root[i]
        if any(c < 0 for c in root):
            return p + 1
    return None


def build_complete_rigid(kind: str, K: Sequence[int], letters: Sequence[int]) -> dict:
    """Summands of the complete rigid module attached to a reduced word.

    letters must be a reduced word for the longest element whose first
    l(w_0^K) letters lie in K, and so form a reduced word for the
    parabolic longest element; both are checked.  M_p is the socle-side
    functor image of the injective at letter p along the length-p prefix;
    zero summands are dropped and the surviving count must equal dim N_K.
    """
    algebra = build_algebra_basis(kind)
    quiver = algebra.quiver
    letters = tuple(letters)
    K = tuple(sorted(set(K)))
    for v in K:
        if v not in quiver.vertices:
            raise PrepmodError(f"K contains {v}, not a vertex")
    J = tuple(v for v in quiver.vertices if v not in K)
    r = len(letters)
    r_total = positive_root_count(quiver, quiver.vertices)
    if r != r_total:
        raise PrepmodError(
            f"word length {r} differs from the number of positive roots {r_total}"
        )
    bad = sorted(set(letters) - set(quiver.vertices))
    if bad:
        raise PrepmodError(f"letters {bad} are not vertices of {quiver.kind}")
    p = first_unreduced_position(quiver, letters)
    if p is not None:
        raise PrepmodError(f"the word is not reduced: letter {letters[p - 1]} at position {p}")
    r_K = positive_root_count(quiver, K)
    outside = next((p for p in range(1, r_K + 1) if letters[p - 1] not in K), None)
    if outside is not None:
        raise PrepmodError(
            f"letter {letters[outside - 1]} at position {outside} is not in K; "
            f"the first {r_K} letters must lie in K"
        )
    dim_NK = r - r_K
    # a reduced word for w_0^K uses every letter of K
    q_k = {k: max(p for p in range(1, r_K + 1) if letters[p - 1] == k) for k in K}
    summands = []
    labels = []
    zero_indices = []
    for p in [*range(r_K + 1, r + 1), *q_k.values()]:
        module = functor_E_word(algebra.injective(letters[p - 1]), letters[:p], dagger=True)
        if module.is_zero:
            zero_indices.append(p)
        else:
            summands.append(module)
            labels.append(f"M{p}")
    for j in J:
        summands.append(algebra.injective(j))
        labels.append(f"Q{j}")
    for a in range(len(summands)):
        for b in range(a + 1, len(summands)):
            if is_isomorphic(summands[a], summands[b]):
                raise PrepmodError(
                    f"summands {labels[a]} and {labels[b]} are isomorphic; "
                    "the construction violates the summand-count bound"
                )
    if len(summands) != dim_NK:
        raise PrepmodError(
            f"got {len(summands)} summands, expected dim N_K = {dim_NK}"
        )
    return {
        "summands": summands,
        "labels": labels,
        "q_k": q_k,
        "zero_positions": sorted(zero_indices),
        "dim_NK": dim_NK,
    }


def exchange_matrix_from_sequences(
    summands: Sequence[QuiverRep],
    n_frozen: int,
    sequences: Sequence[Mapping[str, Sequence[int]]],
    coeff_vertices: Sequence[int] = (),
) -> dict:
    """Assemble the exchange matrix of a complete rigid module from its
    exchange-sequence data.

    sequences[k-1] holds multiplicity vectors over the summand list:
    "X" is the middle term of the sequence starting at the k-th summand
    (0 -> T_k -> X_k -> T_k* -> 0) and "Y" the middle term of the sequence
    ending at it (0 -> T_k* -> Y_k -> T_k -> 0).  Summand rows receive
    +[Y_k : T_i] - [X_k : T_i]; each appended coefficient row (one per
    vertex j in coeff_vertices, a vertex of the summands' quiver) receives
    dim Hom(S_j, X_k) - dim Hom(S_j, Y_k); both sign conventions are pinned
    by the d4-example152 verification case.
    """
    d = len(summands)
    m = d - n_frozen
    if len(sequences) != m:
        raise PrepmodError(f"expected {m} exchange sequences, got {len(sequences)}")
    columns = []
    for k, seq in enumerate(sequences, start=1):
        xvec = tuple(seq["X"])
        yvec = tuple(seq["Y"])
        if len(xvec) != d or len(yvec) != d:
            raise PrepmodError("multiplicity vectors must cover every summand")
        overlap = [i for i in range(d) if xvec[i] and yvec[i]]
        if overlap:
            raise PrepmodError(
                f"direction {k}: X and Y share summand indices {overlap}"
            )
        columns.append(tuple(yvec[i] - xvec[i] for i in range(d)))
    rows = tuple(tuple(columns[j][i] for j in range(m)) for i in range(d))
    matrix = ExchangeMatrix(rows, n_frozen)
    extended_rows = {}
    if coeff_vertices:
        if not summands:
            raise PrepmodError(f"coefficient vertex {coeff_vertices[0]} needs at least one summand")
        quiver = summands[0].quiver
        for j in coeff_vertices:
            if j not in quiver.vertices:
                raise PrepmodError(f"coefficient vertex {j} is not a vertex of the {quiver.kind} quiver")
        if any(t.quiver != quiver for t in summands):
            raise PrepmodError("Hom between modules over different quivers")
        # dim Hom(S_j, T) = dim soc(T)_j
        hom_to_simple = {j: [len(socle_basis_at(t, j)) for t in summands] for j in coeff_vertices}
        for j in coeff_vertices:
            row = []
            for seq in sequences:
                hx = sum(mult * hom_to_simple[j][i] for i, mult in enumerate(seq["X"]))
                hy = sum(mult * hom_to_simple[j][i] for i, mult in enumerate(seq["Y"]))
                row.append(hx - hy)
            extended_rows[j] = tuple(row)
        ext_matrix = ExchangeMatrix(
            rows + tuple(extended_rows[j] for j in coeff_vertices),
            n_frozen + len(coeff_vertices),
        )
    else:
        ext_matrix = matrix
    return {"matrix": matrix, "extended_rows": extended_rows, "extended_matrix": ext_matrix}


# ----------------------------------------------------------------------
# random relation-satisfying modules (for property suites)


def span_sub_rep(rep: QuiverRep, vectors: Mapping[int, Sequence[Sequence]]) -> QuiverRep:
    """Submodule generated by the given per-vertex vectors: close the span
    under all arrow maps, then restrict.

    spans[v] keeps the accepted vectors themselves.  Beside it, echelon[v]
    keeps one (pivot, row) pair per accepted vector, the row 1 at its pivot
    and 0 at every earlier pair's pivot; a candidate reduced against the
    pairs in order vanishes exactly when it lies in the span."""
    q, F = rep.quiver, rep.field
    spans: dict[int, list] = {v: [] for v in q.vertices}
    echelon: dict[int, list] = {v: [] for v in q.vertices}

    def add_vector(v, vec):
        rest = vec
        for pc, row in echelon[v]:
            c = rest[pc]
            if c:
                rest = F.reduce([x - c * y for x, y in zip(rest, row)])
        pivot = next((i for i, x in enumerate(rest) if x), None)
        if pivot is None:
            return False
        inv = F.inv(rest[pivot])
        echelon[v].append((pivot, F.reduce([inv * x for x in rest])))
        spans[v].append(vec)
        return True

    frontier = []
    for v, vecs in vectors.items():
        for vec in vecs:
            coerced = tuple(F.coerce(x) for x in vec)
            if add_vector(v, coerced):
                frontier.append((v, coerced))
    while frontier:
        v, vec = frontier.pop()
        for a in q.arrows_from(v):
            image = mat_vec(F, rep.map_of(a), vec)
            if add_vector(a.target, image):
                frontier.append((a.target, image))
    return sub_rep(rep, spans)


def random_module(kind: str, rng: random.Random, max_total_dim: int = 8) -> QuiverRep:
    """A random relation-satisfying module: a random submodule of a small
    injective sum, shrunk with random socle-removal steps if too large."""
    algebra = build_algebra_basis(kind)
    quiver = algebra.quiver
    for _ in range(64):
        count = rng.randint(1, 2)
        ambient = direct_sum(
            *[algebra.injective(rng.choice(quiver.vertices)) for _ in range(count)]
        )
        vectors: dict[int, list] = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(quiver.vertices)
            dv = ambient.dim(v)
            if dv == 0:
                continue
            vectors.setdefault(v, []).append(
                [rng.randint(-2, 2) for _ in range(dv)]
            )
        if not vectors:
            continue
        sub = span_sub_rep(ambient, vectors)
        guard = 16
        while sub.total_dim > max_total_dim and guard:
            sub = functor_E_dagger(sub, rng.choice(quiver.vertices))
            guard -= 1
        if 0 < sub.total_dim <= max_total_dim:
            return sub
    raise PrepmodError("failed to sample a random module")
