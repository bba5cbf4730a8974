"""The graph record: ``Graph``, its vertex roles and their JSON form.

A ``Graph`` is an immutable simple undirected graph on the vertices
0..p-1, with its edges in a fixed order, so that an edge labeling can be
stored as a flat list and compared across runs; labelings and certificates
reference a graph by its content hash.  This module holds what reading a
graph document, checking it and hashing it need, and nothing else: the
family builders, whose numbering conventions fix the vertex and edge order
of the paper's graphs, are in ``graphs``, which re-exports the names here,
and the refinement and isomorphism code is in ``iso``.  A cache hit of the
CLI loads this module and neither of those.  The content hash is taken with
CPython's built-in SHA-256, so no request loads ``hashlib`` and OpenSSL.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from .jsonio import check_version, stamp

# CPython's own SHA-256, the same digest as hashlib.sha256: importing
# hashlib loads OpenSSL's libcrypto, a few milliseconds of every request.
# The version picks the module's name, so no import is tried in vain.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256

# role kinds
HUB = "hub"
INNER = "inner"
HUB_PENDANT = "hub-pendant"
PENDANT = "pendant"
PLAIN = "plain"

_ROLE_KINDS = (HUB, INNER, HUB_PENDANT, PENDANT, PLAIN)


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


def _need_int(value, least: int, message: str) -> None:
    """Family parameters and budgets are plain ints (never bools) >= least;
    else raise ValueError(message), its ``{}`` filled with repr(value)."""
    if type(value) is not int or value < least:
        raise ValueError(message.format(repr(value)))


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
                if type(e) is str:  # a two-character string unpacks
                    raise ValueError(f"edge {e!r} is not a pair of vertex ids")
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
        """Hash of the labeled structure (order + indexed edge list): the
        hex SHA-256 of ``{"p":...,"edges":[[a,b],...]}`` in compact JSON.

        The digest is a file format: it keys the CLI cache and is the
        ``graph_hash`` that certificates and labelings carry, so the
        encoding and the hash must not change."""
        if self._hash is None:
            blob = json.dumps({"p": self.p, "edges": self.edges},
                              separators=(",", ":")).encode()
            self._hash = sha256(blob).hexdigest()
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
