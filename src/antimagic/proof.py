"""The search's lower bound, computed whole on one partial labeling.

``lower_bound_prune`` states the admissible bound that ``solver._search``
keeps incrementally, node by node (the six observations in the ``solver``
docstring), for any partial labeling at once.  The tests use it as the
oracle for the search's bound; the solver reads it only on the empty
labeling of a copy of friendship_corona(n, 1), where it refutes every k
below 2n+3, and imports this module only there.  The bound's terms that the
search also runs (``_above_cut``, ``_cliques``, ``_light_load``,
``_spare_shut``) stay in ``solver`` and are imported from it.
"""

from __future__ import annotations

from itertools import accumulate

from .graph import Graph, _is_int, _triangular
from .solver import _above_cut, _cliques, _light_load, _spare_shut


def lower_bound_prune(g: Graph, partial) -> float:
    """Admissible lower bound on the color count of any bijective completion
    of a partial labeling (entries None or 0 mean unassigned).

    Returns the exact color count on complete assignments and ``inf`` when
    two adjacent closed vertices already share a weight.  It is the oracle
    for the search's incremental bound: ``conftest.reference_search`` prunes
    by this function alone, and ``test_search_matches_reference_bound``
    checks that it visits the same nodes and reaches the same verdicts as
    ``feasible_with_k_colors``.  ``solver._descend`` reads it once, on the
    empty labeling of a copy of friendship_corona(n, 1), to refute every k
    below 2n+3 with 0 nodes.
    """
    q = g.q
    if len(partial) != q:
        raise ValueError(f"expected {q} entries, got {len(partial)}")
    labels = [0 if x is None else x for x in partial]
    used = set()
    for lnum in labels:
        if not _is_int(lnum):
            raise ValueError(f"label {lnum!r} is not an int")
        if lnum == 0:
            continue
        if not 1 <= lnum <= q:
            raise ValueError(f"label {lnum} outside 1..{q}")
        if lnum in used:
            raise ValueError(f"duplicate label {lnum}")
        used.add(lnum)
    degs = g.degrees
    wt = [0] * g.p
    rem = list(degs)
    for e, lnum in enumerate(labels):
        if lnum:
            a, b = g.edges[e]
            wt[a] += lnum
            wt[b] += lnum
            rem[a] -= 1
            rem[b] -= 1
    closed = [v for v in range(g.p) if rem[v] == 0]
    closed_set = set(closed)
    for a, b in g.edges:
        if a in closed_set and b in closed_set and wt[a] == wt[b]:
            return float("inf")
    nonpend_label = [False] * (q + 1)
    for e, lnum in enumerate(labels):
        if lnum:
            a, b = g.edges[e]
            if degs[a] > 1 and degs[b] > 1:
                nonpend_label[lnum] = True
    gt = {wt[v] for v in closed if wt[v] > q}
    le = {wt[v] for v in closed if wt[v] <= q}
    x = sum(1 for w in le if nonpend_label[w])
    pendant_total = sum(1 for v in range(g.p) if degs[v] == 1)
    heavy = max(range(g.p), key=lambda v: (degs[v], -v))
    delta = 0
    if rem[heavy] > 0 and _triangular(degs[heavy]) > q:
        heavy_adj = set(g.neighbors(heavy))
        covered = {wt[v] for v in closed if wt[v] > q and v in heavy_adj}
        if gt <= covered:
            delta = 1
    # the surely-above members of one clique need distinct weights above q
    above = [_above_cut(wt[v], rem[v], q) < 0 for v in range(g.p)]
    clique = max((sum(above[v] for v in c) for c in _cliques(g)), default=0)
    bound = max(len(gt) + delta, clique) + max(pendant_total + x, len(le))
    if len(gt) + delta < clique:
        return bound
    # with exactly `bound` colours the weights above q are gt's (and heavy's):
    # a light vertex, adjacent to all their closed holders, ends at most q
    light = sum(1 << v for v in range(g.p) if rem[v] and degs[v] > 1)
    for v in closed:
        if wt[v] > q:
            light &= sum(1 << u for u in g.neighbors(v))
    if delta:
        light &= sum(1 << u for u in g.neighbors(heavy))
    verts = [v for v in range(g.p) if light >> v & 1]
    n2, n12, *spare = _light_load(light, verts, [g.edges[e] for e in range(q)
                                                 if not labels[e]], g.edges)
    # the cheapest completion: the smallest free labels on the edges inside
    sums = [0, *accumulate(lnum for lnum in range(1, q + 1)
                           if lnum not in used)]
    weights = [wt[v] for v in verts]
    room = len(verts) * q
    if sum(weights) + sums[n2] + sums[n12] <= room:
        return bound
    # with bound + 1 colours at most one weight above q is new, and the
    # light vertices that end above q all take it
    return bound + 1 + _spare_shut(weights, room, q, sums, n2, n12, *spare)
