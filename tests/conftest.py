"""Shared fixtures and the brute-force reference oracles.

The colour-count oracle enumerates all q! bijections (or the completions of
a partial labeling), so it is only usable for q <= 7; the solver tests and
the acceptance suite compare against it on small graphs.  The symmetry
oracle enumerates all p! vertex permutations (p <= 8) and checks the
solver's stabiliser chain.  The bound oracle re-runs the solver's search
with ``lower_bound_prune`` as its only pruning rule.  The f2.O1 exact solve
is session-scoped because several tests (solver behavior, acceptance budget)
read the same result.
"""

from __future__ import annotations

import itertools
import random

import pytest

from antimagic import Graph, SearchConfig, exact_chi_la, friendship_corona
from antimagic.proof import lower_bound_prune
from antimagic.solver import _order_edges, symmetry_pairs


def naive_exact_chi_la(g: Graph, partial=None) -> int:
    """Minimum color count over all q! labelings by full enumeration, or
    over the completions of ``partial`` (entries None or 0 are free)."""
    if g.q > 7:
        raise ValueError("naive oracle limited to q <= 7")
    fixed = list(partial) if partial is not None else [None] * g.q
    free_edges = [e for e, x in enumerate(fixed) if not x]
    free_labels = sorted(set(range(1, g.q + 1)) - set(fixed))
    best = None
    edges = g.edges
    for perm in itertools.permutations(free_labels):
        labels = list(fixed)
        for e, lab in zip(free_edges, perm):
            labels[e] = lab
        weights = [0] * g.p
        for (a, b), lab in zip(edges, labels):
            weights[a] += lab
            weights[b] += lab
        if any(weights[a] == weights[b] for a, b in edges):
            continue
        colors = len(set(weights))
        if best is None or colors < best:
            best = colors
    if best is None:
        raise ValueError("graph admits no local antimagic labeling")
    return best


def naive_symmetry_pairs(g: Graph, order) -> list[tuple[int, int]]:
    """Edge stabiliser chain in ``order`` from all p! vertex permutations:
    (e, f) for every f != e in the orbit of e under the automorphisms that
    fix each earlier edge of ``order``."""
    if g.p > 8:
        raise ValueError("naive automorphism oracle limited to p <= 8")
    edges = set(g.edges)
    auts = []
    for perm in itertools.permutations(range(g.p)):
        if all((min(perm[a], perm[b]), max(perm[a], perm[b])) in edges
               for a, b in g.edges):
            auts.append([g.edge_index(perm[a], perm[b]) for a, b in g.edges])
    pairs = []
    for e in order:
        pairs += [(e, f) for f in sorted({pi[e] for pi in auts} - {e})]
        auts = [pi for pi in auts if pi[e] == e]
    return pairs


def reference_search(g: Graph, k: int) -> tuple[int, bool]:
    """Plain depth-first search for a labeling with at most k colours, in
    the solver's edge order and under its symmetry pairs, that prunes only
    by ``lower_bound_prune(g, partial) > k``.  Returns (nodes, found), with
    nodes counted as the solver counts them: the root and every placed
    label that the bound lets through."""
    order = _order_edges(g)
    earlier: dict[int, list[int]] = {}
    for a, b in symmetry_pairs(g, order):
        earlier.setdefault(b, []).append(a)
    partial = [None] * g.q
    nodes = 0

    def dfs(pos: int) -> bool:
        nonlocal nodes
        nodes += 1
        if pos == g.q:  # the bound is exact on a complete labeling
            return True
        e = order[pos]
        low = max((partial[f] for f in earlier.get(e, ())), default=0)
        for lnum in range(low + 1, g.q + 1):
            if lnum in partial:
                continue
            partial[e] = lnum
            if lower_bound_prune(g, partial) <= k and dfs(pos + 1):
                return True
            partial[e] = None
        return False

    found = dfs(0)
    return nodes, found


def relabeled(g: Graph, seed: int) -> Graph:
    """Copy of ``g`` as a hand-written file might give it: vertices
    permuted, the edge list shuffled, plain roles."""
    rng = random.Random(seed)
    perm = list(range(g.p))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in g.edges]
    rng.shuffle(edges)
    return Graph(g.p, edges)


@pytest.fixture(scope="session")
def f2_graph() -> Graph:
    return friendship_corona(2, 1)


@pytest.fixture(scope="session")
def f2_exact_outcome(f2_graph):
    """Full exact solve of f2.O1, shared by several tests."""
    return exact_chi_la(f2_graph, SearchConfig())
