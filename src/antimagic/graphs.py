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
content hash.  The record itself (``Graph``, ``VertexRole`` and the role
kinds) is defined in ``graph`` and re-exported here; this module adds the
builders and nothing else.  The refinement and isomorphism search, and the
test that a graph looks like ``friendship_corona(n, 1)``, read the edges
alone and are in ``iso``: the solver imports that module and not this one.
"""

from __future__ import annotations

from operator import itemgetter

from .graph import (HUB, HUB_PENDANT, INNER, PENDANT, PLAIN, Graph,
                    VertexRole, _need_int, _new)

# the corona families with a closed-form bound report, by their CLI names
REPORT_FAMILIES = ("friendship-corona", "fan-corona", "c3-corona", "kn-k1")


def friendship(n: int) -> Graph:
    """n triangles sharing one hub: order 2n+1, size 3n, for an int n >= 2.

    The hub is vertex 0, u_i is vertex i and v_i vertex n+i.  The edges
    come in this order, each group by i: the hub-u_i spokes, the hub-v_i
    spokes, then the triangle edges u_i v_i (``construction`` lists its
    labels in this order).
    """
    _need_int(n, 2, "friendship graph needs n >= 2, got {}")
    roles = [_new(VertexRole, (HUB, "", 0, 0))]
    roles += [_new(VertexRole, (INNER, "u", i, 0)) for i in range(1, n + 1)]
    roles += [_new(VertexRole, (INNER, "v", i, 0)) for i in range(1, n + 1)]
    edges = [(0, i) for i in range(1, n + 1)]          # hub-u spokes
    edges += [(0, n + i) for i in range(1, n + 1)]     # hub-v spokes
    edges += [(i, n + i) for i in range(1, n + 1)]     # triangle closers
    return Graph(2 * n + 1, edges, roles, family=f"friendship({n})")


def fan(n: int) -> Graph:
    """Hub joined to each vertex of a path on n vertices, for an int n >= 2."""
    _need_int(n, 2, "fan graph needs n >= 2, got {}")
    roles = [VertexRole(HUB)]
    roles += [VertexRole(INNER, "v", i) for i in range(1, n + 1)]
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i + 1) for i in range(1, n)]
    return Graph(n + 1, edges, roles, family=f"fan({n})")


def null_graph(m: int) -> Graph:
    """m isolated vertices, for an int m >= 1."""
    _need_int(m, 1, "null graph needs at least 1 vertex, got {}")
    return Graph(m, [], family=f"null({m})")


def cycle(n: int) -> Graph:
    """The cycle on n vertices, for an int n >= 3."""
    _need_int(n, 3, "cycle needs n >= 3, got {}")
    roles = [VertexRole(INNER, "", i + 1) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, edges, roles, family=f"cycle({n})")


def path(n: int) -> Graph:
    """The path on n vertices, for an int n >= 1."""
    _need_int(n, 1, "path needs n >= 1, got {}")
    roles = [VertexRole(INNER, "", i + 1) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, roles, family=f"path({n})")


def complete(n: int) -> Graph:
    """The complete graph on n vertices, for an int n >= 1."""
    _need_int(n, 1, "complete graph needs n >= 1, got {}")
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


def fan_corona(n: int, m: int) -> Graph:
    """fan(n) o null_graph(m): q=m(n+1)+2n-1."""
    return corona(fan(n), null_graph(m))
