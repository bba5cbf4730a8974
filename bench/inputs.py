"""Seeded inputs for the benchmark workloads.

Everything the program under test sees is built here from the workload seed,
so the same seed always gives the same graphs.  Inputs are plain ``Graph``
objects or the JSON documents a user would write by hand; nothing here runs
the solver.
"""

from __future__ import annotations

import random

import antimagic as am


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """Independent, reproducible stream per (workload, seed, purpose)."""
    return random.Random(f"{workload}:{seed}:{purpose}")


def ladder_instances() -> dict:
    """name -> (builder, exact value).  The values come from the package's
    lemmas; F3oO1 = 7 is the known value, which meets lb_fan(3, 1)."""
    return {
        "C3oO1": (lambda: am.corona(am.cycle(3), am.null_graph(1)),
                  lambda: am.known_exact_c3_corona(1)),
        "C3oO2": (lambda: am.corona(am.cycle(3), am.null_graph(2)),
                  lambda: am.known_exact_c3_corona(2)),
        "F3oO1": (lambda: am.fan_corona(3, 1), lambda: 7),
        "K4oK1": (lambda: am.corona(am.complete(4), am.complete(1)),
                  lambda: am.known_exact_kn_k1(4)),
        "f2oO1": (lambda: am.friendship_corona(2, 1),
                  lambda: am.chi_la_friendship_o1(2)),
    }


def open_instances() -> dict:
    """name -> (builder, lower bound from bound_report)."""
    return {
        "f3oO1": (lambda: am.friendship_corona(3, 1),
                  lambda: am.bound_report("friendship-corona", 3, 1).lower),
        "F4oO1": (lambda: am.fan_corona(4, 1),
                  lambda: am.bound_report("fan-corona", 4, 1).lower),
        "f2oO2": (lambda: am.friendship_corona(2, 2),
                  lambda: am.bound_report("friendship-corona", 2, 2).lower),
    }


def plain_doc(p: int, edges) -> dict:
    """Graph document as a user would write it: no family, plain roles."""
    return {
        "schema_version": 1,
        "family": None,
        "p": p,
        "q": len(edges),
        "edges": [list(e) for e in edges],
        "roles": [{"kind": "plain", "i": v} for v in range(p)],
    }


def relabeled_doc(g, rng: random.Random) -> dict:
    """Seeded vertex permutation of g with a shuffled, randomly oriented edge
    list and plain roles."""
    perm = list(range(g.p))
    rng.shuffle(perm)
    edges = []
    for a, b in g.edges:
        a, b = perm[a], perm[b]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return plain_doc(g.p, edges)


# Largest edge count of the CLI workloads' random graphs.  Solves stay in the
# millisecond range at this size; at q <= 10 single graphs take tens of
# seconds.
MAX_Q = 8


def random_connected_doc(rng: random.Random) -> dict:
    """Small connected graph with 2 <= q <= MAX_Q, as a plain document.

    A random spanning tree plus random extra edges; every connected graph
    other than K2 has a local antimagic labeling, so the solver always
    answers.
    """
    p = rng.randint(3, min(7, MAX_Q + 1))
    order = list(range(p))
    rng.shuffle(order)
    edges = set()
    for i in range(1, p):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    q = rng.randint(max(2, p - 1), min(MAX_Q, p * (p - 1) // 2))
    while len(edges) < q:
        a, b = rng.sample(range(p), 2)
        edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    rng.shuffle(edges)
    return plain_doc(p, edges)


def shape_key(doc: dict) -> tuple:
    """Isomorphism invariant of a graph document, by colour refinement
    started from the degrees.

    Isomorphic graphs always share a key.  A few non-isomorphic graphs share
    one too (colour refinement cannot tell some regular graphs apart); for
    ``distinct_docs`` that only means a new graph is skipped.
    """
    p = doc["p"]
    adj = [[] for _ in range(p)]
    for a, b in doc["edges"]:
        adj[a].append(b)
        adj[b].append(a)
    colour = [len(nbrs) for nbrs in adj]
    for _ in range(p):
        sigs = [(colour[v], tuple(sorted(colour[u] for u in adj[v])))
                for v in range(p)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colour = [palette[sig] for sig in sigs]
    return p, len(doc["edges"]), tuple(sorted(sigs))


def distinct_docs(rng: random.Random, count: int, seen: set) -> list:
    """``count`` random connected graphs that are not isomorphic to each
    other nor to any graph whose ``shape_key`` is in ``seen``; their keys are
    added to it.

    A cache keyed by a canonical form instead of the edge list as given
    therefore still misses on every one of them.
    """
    docs = []
    while len(docs) < count:
        doc = random_connected_doc(rng)
        key = shape_key(doc)
        if key not in seen:
            seen.add(key)
            docs.append(doc)
    return docs
