"""Small undirected graphs with dense canonical indexing.

Families here are the ones the rest of the package works on: friendship and
fan graphs, cycles, paths, complete and edgeless graphs, and corona products
G o H (one copy of H per vertex of G, joined to it).  Vertex and edge indices
are assigned deterministically so that an edge labeling can be stored as a
flat list and compared across runs:

* vertices: hub first, then the inner vertices in family order, then the
  copies of H grouped by the base vertex they attach to: in ``corona(g, h)``
  vertex j (0-based) of the copy on base vertex b is ``g.p + b*h.p + j``;
* edges: the base graph's edges first (spokes before triangle/path edges),
  then per-copy internal edges followed by the join ("pendant") edges.

Graphs are immutable once built; labelings and certificates reference them by
content hash.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter
from typing import NamedTuple

from .jsonio import check_version, stamp

# role kinds
HUB = "hub"
INNER = "inner"
HUB_PENDANT = "hub-pendant"
PENDANT = "pendant"
PLAIN = "plain"

_ROLE_KINDS = (HUB, INNER, HUB_PENDANT, PENDANT, PLAIN)

# the corona families with a closed-form bound report, by their CLI names
REPORT_FAMILIES = ("friendship-corona", "fan-corona", "c3-corona", "kn-k1")


class VertexRole(NamedTuple):
    """Structural role of a vertex; reconstructs the conventional names.

    ``side`` distinguishes the two triangle legs of a friendship graph
    ("u"/"v"); ``i`` is the 1-based inner index, ``j`` the 1-based pendant
    index within its group.  Unused fields stay at their defaults.
    """

    kind: str
    side: str = ""
    i: int = 0
    j: int = 0

    def name(self) -> str:
        if self.kind == HUB:
            return "x"
        if self.kind == INNER:
            return f"{self.side or 'w'}{self.i}"
        if self.kind == HUB_PENDANT:
            return f"x_{self.j}"
        if self.kind == PENDANT:
            return f"{self.side or 'w'}{self.i}^{self.j}"
        return f"p{self.i}"

    def to_doc(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.side:
            doc["side"] = self.side
        if self.i:
            doc["i"] = self.i
        if self.j:
            doc["j"] = self.j
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "VertexRole":
        if not isinstance(doc, dict):
            raise ValueError(f"vertex role {doc!r} is not an object")
        kind = doc.get("kind")
        if kind not in _ROLE_KINDS:
            raise ValueError(f"unknown vertex role kind {kind!r}")
        role = cls(kind, doc.get("side", ""), doc.get("i", 0), doc.get("j", 0))
        if not isinstance(role.side, str) or not (_is_int(role.i)
                                                  and _is_int(role.j)):
            raise ValueError(f"malformed vertex role {doc!r}")
        return role


# friendship, corona and Graph's default plain roles make roles with
# tuple.__new__ rather than through the named tuple's keyword constructor:
# they make one per vertex, on the paths that build graphs by the hundred.
_new = tuple.__new__


def _is_int(x) -> bool:
    """Vertex ids, orders and role indices are plain ints, never bools."""
    return type(x) is int


def _triangular(k: int) -> int:
    """1 + 2 + ... + k, the least weight of a vertex of degree k."""
    return k * (k + 1) // 2


class Graph:
    """Immutable simple undirected graph with 0-based dense indices.

    A graph stores its order ``p``, its size ``q``, ``edges`` (each pair
    ``(a, b)`` with ``a < b``, in index order), one ``roles`` entry per
    vertex and its ``family`` name.  Roles only name vertices for display
    and may repeat; equality and hashing read ``p`` and ``edges`` alone.
    What can be derived from these is built on the first query that needs
    it and kept: the adjacency and degrees (``neighbors``, ``degree``,
    ``degrees``, ``is_connected``), the edge index (``edge_index``) and
    the content hash.
    """

    __slots__ = ("p", "q", "edges", "roles", "family", "_adj", "_edge_index",
                 "_hash", "_degrees")

    def __init__(self, p: int, edges, roles=None, family: str | None = None):
        if not _is_int(p):
            raise ValueError(f"graph order {p!r} is not an integer")
        if p < 1:
            raise ValueError("graph order must be at least 1")
        index = {}  # the edges in order, as keys: the duplicate check
        for e in edges:
            try:
                a, b = e
            except (TypeError, ValueError):
                raise ValueError(
                    f"edge {e!r} is not a pair of vertex ids") from None
            if type(a) is not int or type(b) is not int:
                bad = b if _is_int(a) else a
                raise ValueError(f"vertex id {bad!r} is not an integer")
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (0 <= a < p and 0 <= b < p):
                raise ValueError(f"edge ({a},{b}) out of range for order {p}")
            # an ordered pair that is already a tuple is its own key
            key = (e if type(e) is tuple else (a, b)) if a < b else (b, a)
            if key in index:
                raise ValueError(f"duplicate edge {key}")
            index[key] = None
        self.p = p
        self.q = len(index)
        self.edges = tuple(index)
        if roles is None:
            roles = [_new(VertexRole, (PLAIN, "", v, 0)) for v in range(p)]
        roles = tuple(roles)
        if len(roles) != p:
            raise ValueError("one role per vertex required")
        self.roles = roles
        self.family = family
        # built by the first query that needs them
        self._adj = self._degrees = self._edge_index = self._hash = None

    # -- basic queries ----------------------------------------------------

    def _index_adjacency(self) -> None:
        adj = [[] for _ in range(self.p)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = tuple(map(tuple, adj))
        self._degrees = tuple(map(len, adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self._adj is None:
            self._index_adjacency()
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._index_adjacency()
        return self._degrees

    def edge_index(self, a: int, b: int) -> int:
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edges)}
        key = (a, b) if a < b else (b, a)
        try:
            return self._edge_index[key]
        except KeyError:
            raise KeyError(f"no edge between {a} and {b}") from None

    def is_connected(self) -> bool:
        if self.p == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.p

    def content_hash(self) -> str:
        """Hash of the labeled structure (order + indexed edge list)."""
        if self._hash is None:
            blob = json.dumps({"p": self.p, "edges": self.edges},
                              separators=(",", ":")).encode()
            self._hash = hashlib.sha256(blob).hexdigest()
        return self._hash

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.p == other.p
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        fam = f" {self.family}" if self.family else ""
        return f"<Graph{fam} p={self.p} q={self.q}>"

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        return stamp({
            "family": self.family,
            "p": self.p,
            "q": self.q,
            "edges": [list(e) for e in self.edges],
            "roles": [r.to_doc() for r in self.roles],
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "Graph":
        check_version(doc, "graph")
        roles, edges = doc["roles"], doc["edges"]
        if not isinstance(roles, list) or not isinstance(edges, list):
            raise ValueError("graph roles and edges must be lists")
        family = doc.get("family")
        if not (family is None or isinstance(family, str)):
            raise ValueError(f"graph family {family!r} is not a string")
        g = cls(doc["p"], edges, [VertexRole.from_doc(r) for r in roles],
                family)
        q = doc["q"]
        if not _is_int(q):
            raise ValueError(f"graph size {q!r} is not an integer")
        if g.q != q:
            raise ValueError(f"edge count {g.q} does not match stated q={q}")
        return g

    def to_dot(self, labels=None, weights=None) -> str:
        """GraphViz source; optional edge labels and per-vertex weights."""
        lines = ["graph G {"]
        for v, role in enumerate(self.roles):
            text = role.name().replace("\\", "\\\\").replace('"', '\\"')
            if weights is not None:
                text += f"\\nw={weights[v]}"
            lines.append(f'  {v} [label="{text}"];')
        for idx, (a, b) in enumerate(self.edges):
            if labels is not None:
                lines.append(f'  {a} -- {b} [label="{labels[idx]}"];')
            else:
                lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- structure: refinement and isomorphism ------------------------------------


def _refine(adj, colours) -> list[int]:
    """Coarsest equitable refinement of a vertex colouring.

    A vertex's new colour is the rank of (old colour, sorted neighbour
    colours) among all such signatures, so colour ids depend only on the
    coloured structure and agree between isomorphic coloured graphs."""
    count = len(set(colours))
    while True:
        sigs = [(colours[v], tuple(sorted(colours[u] for u in adj[v])))
                for v in range(len(adj))]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colours = [rank[s] for s in sigs]
        if len(rank) == count:
            return colours
        count = len(rank)


def _isomorphism(adj, left, right, other=None) -> list[int] | None:
    """An isomorphism pi from the graph ``adj`` onto the graph ``other``
    (default ``adj`` itself, so pi is an automorphism) with
    ``left[v] == right[pi[v]]`` for every vertex, or None:
    individualisation-refinement on the disjoint union of the two graphs,
    the first coloured by ``left`` and the second by ``right``."""
    if other is None:
        other = adj
    p = len(adj)
    double = list(adj) + [[u + p for u in ns] for ns in other]

    def search(colours):
        colours = _refine(double, colours)
        cells: dict[int, tuple[list[int], list[int]]] = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, ([], []))[v >= p].append(v)
        split = None
        for c in sorted(cells):
            ls, rs = cells[c]
            if len(ls) != len(rs):  # so too when the orders differ
                return None
            if split is None and len(ls) > 1:
                split = ls[0], rs
        if split is None:
            # discrete and equitable: the halves correspond vertex by vertex
            return [cells[colours[v]][1][0] - p for v in range(p)]
        v, rs = split
        for w in rs:
            trial = list(colours)
            trial[v] = trial[w] = len(cells)
            found = search(trial)
            if found is not None:
                return found
        return None

    return search(list(left) + list(right))


# -- families ---------------------------------------------------------------


def friendship(n: int) -> Graph:
    """n triangles sharing one hub: order 2n+1, size 3n.  Requires n >= 2.

    The hub is vertex 0, u_i is vertex i and v_i vertex n+i.  The edges
    come in this order, each group by i: the hub-u_i spokes, the hub-v_i
    spokes, then the triangle edges u_i v_i (``construction`` lists its
    labels in this order).
    """
    if n < 2:
        raise ValueError(f"friendship graph needs n >= 2, got {n}")
    roles = [_new(VertexRole, (HUB, "", 0, 0))]
    roles += [_new(VertexRole, (INNER, "u", i, 0)) for i in range(1, n + 1)]
    roles += [_new(VertexRole, (INNER, "v", i, 0)) for i in range(1, n + 1)]
    edges = [(0, i) for i in range(1, n + 1)]          # hub-u spokes
    edges += [(0, n + i) for i in range(1, n + 1)]     # hub-v spokes
    edges += [(i, n + i) for i in range(1, n + 1)]     # triangle closers
    return Graph(2 * n + 1, edges, roles, family=f"friendship({n})")


def fan(n: int) -> Graph:
    """Hub joined to every vertex of a path on n vertices.  Requires n >= 2."""
    if n < 2:
        raise ValueError(f"fan graph needs n >= 2, got {n}")
    roles = [VertexRole(HUB)]
    roles += [VertexRole(INNER, "v", i) for i in range(1, n + 1)]
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i + 1) for i in range(1, n)]
    return Graph(n + 1, edges, roles, family=f"fan({n})")


def null_graph(m: int) -> Graph:
    """m isolated vertices."""
    if m < 1:
        raise ValueError(f"null graph needs at least 1 vertex, got {m}")
    return Graph(m, [], family=f"null({m})")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    roles = [VertexRole(INNER, "", i + 1) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, edges, roles, family=f"cycle({n})")


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    roles = [VertexRole(INNER, "", i + 1) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, roles, family=f"path({n})")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    roles = [VertexRole(INNER, "", i + 1) for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, edges, roles, family=f"complete({n})")


def corona(g: Graph, h: Graph) -> Graph:
    """Corona product g o h: g plus g.p disjoint copies of h, the i-th copy
    fully joined to vertex i of g.

    When h is edgeless and g has no pendant roles (g is not itself such a
    corona), the copies are pendant groups named after their base vertex:
    hub pendants x_j, inner pendants u_i^j / v_i^j.  Otherwise copy vertex v
    is plain p_v.  Roles are display names only, so they may repeat.
    """
    p = g.p * (1 + h.p)
    kinds = set(map(itemgetter(0), g.roles))
    named = h.q == 0 and HUB_PENDANT not in kinds and PENDANT not in kinds
    starts = range(g.p, p, h.p)  # first vertex of each base's copy
    roles = list(g.roles) + [
        _new(VertexRole, (HUB_PENDANT, "", 0, j)) if named and kind == HUB
        else _new(VertexRole, (PENDANT, side, i, j)) if named and kind == INNER
        else _new(VertexRole, (PLAIN, "", start + j - 1, 0))
        for (kind, side, i, _), start in zip(g.roles, starts)
        for j in range(1, h.p + 1)]
    # one block per copy: h's edges, then the joins to the base (a = -1)
    block = list(h.edges) + [(-1, b) for b in range(h.p)]
    edges = list(g.edges) + [
        (start + a if a >= 0 else base, start + b)
        for base, start in enumerate(starts) for a, b in block]
    family = None
    if g.family and h.family:
        family = f"corona({g.family},{h.family})"
    return Graph(p, edges, roles, family=family)


def friendship_corona(n: int, m: int) -> Graph:
    """friendship(n) o null_graph(m): p=(2n+1)(1+m), q=m(2n+1)+3n."""
    return corona(friendship(n), null_graph(m))


def _friendship_o1_n(g: Graph) -> int | None:
    """n when g has the order 4n+2, size 5n+1 and degree multiset of
    friendship_corona(n, 1) for some n >= 2, else None: a cheap test that
    every copy of that corona passes."""
    n, rest = divmod(g.p - 2, 4)
    if n < 2 or rest or g.q != 5 * n + 1:
        return None
    if sorted(g.degrees) != [1] * (2 * n + 1) + [3] * (2 * n) + [2 * n + 1]:
        return None
    return n


def fan_corona(n: int, m: int) -> Graph:
    """fan(n) o null_graph(m): q=m(n+1)+2n-1."""
    return corona(fan(n), null_graph(m))
