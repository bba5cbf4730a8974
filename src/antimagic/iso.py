"""Structure from the edges alone: colour refinement, isomorphism search and
the test that a graph looks like ``friendship_corona(n, 1)``.

Vertex roles are never read here.  The solver's symmetry breaking finds the
automorphisms it needs with ``_refine`` and ``_isomorphism``, and the
construction carries its labeling onto a copy of ``friendship_corona(n, 1)``
numbered any other way with ``_isomorphism``; ``_friendship_o1_n`` is the
cheap guard that both read first.  The family builders are in ``graphs``,
which this module does not import, so a solve of a graph read from a file
compiles the search without them.
"""

from __future__ import annotations

from .graph import Graph


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
