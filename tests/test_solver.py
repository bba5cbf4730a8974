"""Branch-and-bound solver: exactness, budgets, pruning, symmetry."""

import hashlib
import itertools
import json
import math
import random

import pytest

from antimagic import solver
from antimagic.bounds import lb_fan, lb_friendship
from antimagic.construction import certificate_for
from antimagic.graphs import (Graph, complete, corona, cycle, fan, fan_corona,
                              friendship, friendship_corona, null_graph, path)
from antimagic.iso import _friendship_o1_n
from antimagic.labeling import make_certificate, verify_certificate
from antimagic.proof import lower_bound_prune
from antimagic.solver import (BUDGET_EXHAUSTED, EXACT, FEASIBLE, INFEASIBLE,
                              SearchConfig, _order_edges, exact_chi_la,
                              feasible_with_k_colors, symmetry_pairs)
from conftest import (naive_exact_chi_la, naive_symmetry_pairs, reference_search,
                      relabeled)


def c3_o1() -> Graph:
    return corona(cycle(3), null_graph(1))


def k3_k1() -> Graph:
    return corona(complete(3), null_graph(1))


# -- exact values on the small reference instances -----------------------------

def test_c3_corona_exact_is_5():
    out = exact_chi_la(c3_o1())
    assert out.status == EXACT and out.chi == 5
    assert verify_certificate(out.certificate, c3_o1())
    assert out.certificate.color_count == 5


def test_k3_k1_exact_is_5():
    out = exact_chi_la(k3_k1())
    assert out.status == EXACT and out.chi == 5


def test_c3_corona_four_colors_infeasible():
    out = feasible_with_k_colors(c3_o1(), 4)
    assert out.status == INFEASIBLE
    assert out.infeasible_k == 4
    assert out.certificate is None


def test_c3_corona_five_colors_feasible():
    out = feasible_with_k_colors(c3_o1(), 5)
    assert out.status == FEASIBLE
    assert out.certificate.color_count <= 5
    assert verify_certificate(out.certificate, c3_o1())


def test_f2_exact(f2_graph, f2_exact_outcome):
    out = f2_exact_outcome
    assert out.status == EXACT and out.chi == 7
    assert verify_certificate(out.certificate, f2_graph)
    # 23,926 before the clique term, 8,546 before the light-vertex term,
    # which proves 6 colours too few at the root (lower_bound_prune is 7);
    # 1 while that proof still ran the search, which closed at its root
    assert out.nodes_explored == 0 and out.wall_time >= 0.0


# Node counts are deterministic; a change that moves one must say why.  The
# clique term took C3oO1 from 206 and C3oO2 from 35,155: the base triangle's
# vertices are surely above q, so they need three weights above q.  The
# light-vertex term took C3oO1 from 51 (see the mid-search case below).
# K4oK1 took 265,257 nodes before the clique term: its four inner vertices
# form one clique, so the term does the most work there.  F3oO1 took 10,761
# before the light-vertex term.  The spare-colour test then took C3oO1 from
# 42, C3oO2 from 176, F3oO1 from 5,459 and K4oK1 from 2,955.
@pytest.mark.parametrize("g, nodes",
                         [(c3_o1(), 20),
                          (corona(cycle(3), null_graph(2)), 40),
                          (fan_corona(3, 1), 1_044),
                          (corona(complete(4), complete(1)), 2_940)],
                         ids=["C3oO1", "C3oO2", "F3oO1", "K4oK1"])
def test_exact_node_counts_pinned(g, nodes):
    assert exact_chi_la(g).nodes_explored == nodes


def test_f2_six_colors_infeasible(f2_graph):
    out = feasible_with_k_colors(f2_graph, 6)
    assert out.status == INFEASIBLE and out.infeasible_k == 6


# -- the construction's certificate answers k >= 2n+3 on f_n o O_1 -----------

def _descent(g):
    """Node counts of feasible_with_k_colors from k = p down, taken the way
    exact_chi_la descends, and the last feasible colour count."""
    k, steps, chi = g.p, [], None
    while True:
        out = feasible_with_k_colors(g, k)
        steps.append(out.nodes_explored)
        if out.status != FEASIBLE:
            assert out.status == INFEASIBLE
            return steps, chi
        chi = out.certificate.color_count
        k = chi - 1


@pytest.mark.parametrize("g, seeded", [(friendship_corona(2, 1), True),
                                       (corona(cycle(3), null_graph(2)), False)],
                         ids=["f2oO1", "C3oO2"])
def test_descent_steps_sum_to_exact_nodes(g, seeded):
    steps, chi = _descent(g)
    out = exact_chi_la(g)
    assert out.status == EXACT and out.chi == chi
    assert sum(steps) == out.nodes_explored
    assert (steps[0] == 0) == seeded


def test_f2_seven_colors_answered_by_construction(f2_graph):
    out = feasible_with_k_colors(f2_graph, 7)
    assert out.status == FEASIBLE and out.nodes_explored == 0
    assert out.certificate.color_count == 7
    assert verify_certificate(out.certificate, f2_graph)


@pytest.mark.parametrize("g, n", [(friendship_corona(2, 1), 2),
                                  (friendship_corona(3, 1), 3),
                                  (friendship_corona(10, 1), 10),
                                  (friendship_corona(40, 1), 40),
                                  (relabeled(friendship_corona(3, 1), seed=5),
                                   3)],
                         ids=["f2oO1", "f3oO1", "f10oO1", "f40oO1",
                              "relabeled-f3oO1"])
def test_friendship_o1_closes_at_the_root_bound(g, n, monkeypatch):
    # the construction meets the bound on the empty labeling, so neither
    # the exact answer nor the refutation of 2n+2 builds a search plan
    def refuse(*args, **kwargs):
        raise AssertionError("a seeded friendship corona reached the search")

    monkeypatch.setattr(solver, "symmetry_pairs", refuse)
    monkeypatch.setattr(solver, "_search", refuse)
    assert lower_bound_prune(g, [None] * g.q) == 2 * n + 3
    out = exact_chi_la(g)
    assert out.status == EXACT and out.chi == 2 * n + 3
    assert out.nodes_explored == 0
    assert verify_certificate(out.certificate, g)
    out = feasible_with_k_colors(g, 2 * n + 2)
    assert out.status == INFEASIBLE and out.infeasible_k == 2 * n + 2
    assert out.nodes_explored == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_relabeled_friendship_o1_gets_construction(n):
    g = relabeled(friendship_corona(n, 1), seed=n)
    out = feasible_with_k_colors(g, 2 * n + 3)
    assert out.status == FEASIBLE and out.nodes_explored == 0
    assert out.certificate.color_count == 2 * n + 3
    assert verify_certificate(out.certificate, g)


def test_seeded_step_computes_no_symmetry(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("symmetry_pairs ran on a seeded step")

    monkeypatch.setattr(solver, "symmetry_pairs", refuse)
    g = relabeled(friendship_corona(3, 1), seed=3)
    out = feasible_with_k_colors(g, 9)
    assert out.status == FEASIBLE and out.nodes_explored == 0
    assert verify_certificate(out.certificate, g)


def test_same_degrees_not_isomorphic_is_not_seeded():
    # p, q and degrees of friendship_corona(2, 1), but inner vertex 1 holds
    # two pendants and inner vertex 2 none
    g = Graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7),
                   (2, 3), (2, 4), (3, 8), (4, 9)])
    assert sorted(g.degrees) == sorted(friendship_corona(2, 1).degrees)
    out = feasible_with_k_colors(g, g.p)
    assert out.status == FEASIBLE and out.nodes_explored > 0



def test_degree_twin_of_f2_o1_is_searched():
    # friendship_corona(2, 1) with its edges (1, 3) and (2, 7) swapped into
    # (1, 7) and (2, 3): the degrees are kept, so it passes the cheap test,
    # but vertex 1 holds two pendants and the isomorphism search refuses it
    g = Graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 7), (2, 4), (2, 3),
                   (0, 5), (1, 6), (3, 8), (4, 9)])
    assert _friendship_o1_n(g) == 2
    assert certificate_for(g) is None
    out = exact_chi_la(g)
    assert (out.status, out.chi, out.nodes_explored) == (EXACT, 7, 10_276)
    assert verify_certificate(out.certificate, g)

# -- agreement with the brute-force oracle -------------------------------------

ORACLE_GRAPHS = [path(4), cycle(4), cycle(5),
                 Graph(4, ((0, 1), (0, 2), (0, 3))), complete(4), path(7)]
ORACLE_IDS = ["P4", "C4", "C5", "K13", "K4", "P7"]


@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=ORACLE_IDS)
def test_matches_naive_oracle(g):
    out = exact_chi_la(g)
    assert out.status == EXACT
    assert out.chi == naive_exact_chi_la(g)


# -- determinism ----------------------------------------------------------------

def test_deterministic_repeat_runs():
    a = exact_chi_la(c3_o1())
    b = exact_chi_la(c3_o1())
    assert a.chi == b.chi
    assert a.certificate.labels == b.certificate.labels
    assert a.nodes_explored == b.nodes_explored


def test_symmetry_pairs_label_constraints():
    f2 = friendship_corona(2, 1)
    pairs = symmetry_pairs(f2)
    assert pairs, "friendship corona symmetries should be found"
    for lo, hi in pairs:
        assert 0 <= lo < f2.q and 0 <= hi < f2.q and lo != hi
    # c3 corona with two pendants per base vertex: per-vertex pendant chains
    c3o2 = corona(cycle(3), null_graph(2))
    assert symmetry_pairs(c3o2)


def _random_connected(seed: int) -> tuple[Graph, list[int]]:
    """Sparse connected graph with p <= 8 (a random tree plus a few edges,
    so that many have automorphisms) and a random edge order."""
    rng = random.Random(seed)
    p = rng.randint(3, 8)
    edges = {(rng.randrange(v), v) for v in range(1, p)}
    extra = rng.random() * 0.3
    edges |= {(a, b) for a in range(p) for b in range(a + 1, p)
              if rng.random() < extra}
    edges = sorted(edges)
    rng.shuffle(edges)
    order = list(range(len(edges)))
    rng.shuffle(order)
    return Graph(p, edges), order


# graphs with triangles and larger cliques, where the clique term works
CLIQUE_GRAPHS = [friendship(2), fan(4),
                 Graph(5, complete(4).edges + ((0, 4),))]
CLIQUE_IDS = ["f2", "F4", "K4+pendant"]


def _random_with_pendants(seed: int) -> Graph:
    """Connected graph with q <= 7: a random core of 3-5 vertices (a tree
    plus chords) with pendants hung on it, where the light-vertex term
    works."""
    rng = random.Random(seed)
    core = rng.randint(3, 5)
    edges = [(rng.randrange(v), v) for v in range(1, core)]
    for a, b in itertools.combinations(range(core), 2):
        if len(edges) < 6 and (a, b) not in edges and rng.random() < 0.5:
            edges.append((a, b))
    p = core
    while len(edges) < 7 and (p == core or rng.random() < 0.7):
        edges.append((rng.randrange(core), p))
        p += 1
    rng.shuffle(edges)
    return Graph(p, edges)


PENDANT_GRAPHS = [_random_with_pendants(seed) for seed in range(10)]
PENDANT_IDS = [f"pendants{seed}" for seed in range(10)]

BOUND_ORACLE_GRAPHS = ORACLE_GRAPHS + CLIQUE_GRAPHS + [c3_o1()] + [
    _random_connected(seed)[0] for seed in range(10)] + PENDANT_GRAPHS
BOUND_ORACLE_IDS = ORACLE_IDS + CLIQUE_IDS + ["C3oO1"] + [
    f"random{seed}" for seed in range(10)] + PENDANT_IDS


@pytest.mark.parametrize("g", BOUND_ORACLE_GRAPHS, ids=BOUND_ORACLE_IDS)
def test_search_matches_reference_bound(g):
    # the incremental bound inside the search prunes exactly where
    # lower_bound_prune does: same nodes, same verdict, at every k
    for k in range(2, g.p + 1):
        out = feasible_with_k_colors(g, k)
        assert reference_search(g, k) == (out.nodes_explored,
                                          out.status == FEASIBLE), k


def test_heavy_term_match_case_pinned():
    # the heavy-vertex term's `bad -= 1` case (a weight above q closed away
    # from heavy, later also closed next to it) clears bad, so the light
    # term reads heavy's weight as the one new weight above q; without that
    # case this search takes 13,965 nodes, and reference_search, whose
    # bound reads the closed weights directly, takes 13,789.  Here the case
    # moves the count only at the edge's second end; on the next graph only
    # at its first, where without it the search takes 4,475 nodes, not 4,302
    # (13,790 and 4,355 before the spare-colour test).
    g, _ = _random_connected(26)
    out = feasible_with_k_colors(g, 4)
    assert out.status == FEASIBLE and out.nodes_explored == 13_789
    g, _ = _random_connected(48)
    out = feasible_with_k_colors(g, 3)
    assert out.status == FEASIBLE and out.nodes_explored == 4_302


def _first_edges_come_first(pairs, order) -> bool:
    """The search relies on this: an edge's labels start above those of
    the pair partners it must exceed, which are labelled before it."""
    pos = {e: i for i, e in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in pairs)


@pytest.mark.parametrize("seed", range(20))
def test_symmetry_pairs_match_oracle_random(seed):
    g, order = _random_connected(seed)
    pairs = symmetry_pairs(g, order)
    assert sorted(pairs) == sorted(naive_symmetry_pairs(g, order))
    assert _first_edges_come_first(pairs, order)


CUBE = Graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)
                 if v < v ^ bit])


@pytest.mark.parametrize("g", [c3_o1(), corona(complete(4), complete(1)),
                               fan_corona(3, 1), cycle(6), CUBE],
                         ids=["C3oO1", "K4oK1", "F3oO1", "C6", "Q3"])
def test_symmetry_pairs_match_oracle_structured(g):
    order = _order_edges(g)
    expected = naive_symmetry_pairs(g, order)
    assert expected
    pairs = symmetry_pairs(g)
    assert sorted(pairs) == sorted(expected)
    assert _first_edges_come_first(pairs, order)


def test_symmetry_pairs_skip_edges_refinement_cannot_separate(monkeypatch):
    # in the triangular prism colour refinement gives a triangle edge and a
    # rung the same cell, so some candidate edges have no automorphism
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    real, found = solver._isomorphism, []

    def isomorphism(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(solver, "_isomorphism", isomorphism)
    pairs = symmetry_pairs(prism)
    assert pairs == naive_symmetry_pairs(prism, _order_edges(prism))
    assert len(found) == 6 and found.count(None) == 3


@pytest.mark.parametrize("make, n, m, count, digest", [
    (friendship_corona, 20, 2, 441,
     "2427eff50df721a76e6e758049c270c0937beb5abf27639c537da9f2b3abfa93"),
    (fan_corona, 30, 3, 94,
     "f8c190a0d5d6b44629faad87c114cf446cc0c82e8e91e81fe468b79191f3a9e8"),
], ids=["f20oO2", "F30oO3"])
def test_symmetry_pairs_pinned_beyond_the_oracle(make, n, m, count, digest):
    # naive_symmetry_pairs stops at p <= 8; these digests of the full lists
    # pin them for a change to the refinement or the orbit search
    pairs = symmetry_pairs(make(n, m))
    assert len(pairs) == count
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest


def test_symmetry_ignores_vertex_roles():
    g = fan_corona(3, 1)
    tagged = exact_chi_la(g)
    plain = exact_chi_la(Graph(g.p, g.edges))
    assert tagged.chi == plain.chi == 7
    # 91,066 before the clique term, 10,761 before the light-vertex term,
    # 5,459 before the spare-colour test
    assert tagged.nodes_explored == plain.nodes_explored == 1_044


# -- budgets --------------------------------------------------------------------

def test_node_budget_exhaustion():
    # f2oO1 closes with 0 nodes; F4oO1's exact solve takes 394
    out = exact_chi_la(fan_corona(4, 1), SearchConfig(node_budget=10))
    assert out.status == BUDGET_EXHAUSTED
    assert out.chi is None
    assert out.nodes_explored <= 10 + 1


def test_node_budget_spent_between_steps():
    # C3oO2's first step finds a 9-colouring in exactly 10 nodes (the proof
    # of 8 takes 166), so the budget runs out before the second step starts
    g = corona(cycle(3), null_graph(2))
    out = exact_chi_la(g, SearchConfig(node_budget=10))
    assert out.status == BUDGET_EXHAUSTED and out.nodes_explored == 10
    assert out.best_so_far.color_count == 9
    assert verify_certificate(out.best_so_far, g)


def test_time_budget_stops_search_at_a_deadline_check():
    # F3oO2's proof of 10 takes 100,960 nodes; the clock is read every
    # 1,024 nodes, so a search stopped by it has a multiple of 1,024
    out = feasible_with_k_colors(fan_corona(3, 2), 10,
                                 SearchConfig(time_budget=0.05))
    assert out.status == BUDGET_EXHAUSTED
    assert 1_024 <= out.nodes_explored < 100_960
    assert out.nodes_explored % 1_024 == 0


def test_time_budget_exhaustion(f2_graph):
    # the construction's labeling and the bound on the empty labeling, which
    # refutes 6, both answer before any budget is checked
    out = exact_chi_la(f2_graph, SearchConfig(time_budget=1e-9))
    assert out.status == EXACT and out.chi == 7
    assert out.nodes_explored == 0 and out.best_so_far is None
    assert verify_certificate(out.certificate, f2_graph)
    out = exact_chi_la(c3_o1(), SearchConfig(time_budget=1e-9))
    assert out.status == BUDGET_EXHAUSTED and out.nodes_explored == 0


def test_spent_time_budget_stops_feasibility_before_its_step():
    out = feasible_with_k_colors(c3_o1(), 4, SearchConfig(time_budget=1e-9))
    assert out.status == BUDGET_EXHAUSTED and out.nodes_explored == 0


def test_budget_keeps_best_so_far():
    # enough nodes to find a 12-colouring, not enough to find one with 11
    # (the lemma's value, found in 125,513 nodes at k = 11)
    g = fan_corona(3, 2)
    out = exact_chi_la(g, SearchConfig(node_budget=20_000))
    assert out.status == BUDGET_EXHAUSTED
    assert out.best_so_far.color_count == 12
    assert verify_certificate(out.best_so_far, g)


# A budgeted search stops at the same node count whatever order it visits
# nodes in; its best labeling pins that order.  These are the benchmark's
# two budgeted ladder instances.  F4oO1 spent its budget until the
# spare-colour test closed its proof of 7 at the root; it is now exact, and
# its certificate is the best labeling it used to stop with.
@pytest.mark.parametrize("g, status, nodes, colours, labels", [
    (fan_corona(4, 1), EXACT, 394, 8,
     (2, 6, 12, 7, 4, 11, 10, 1, 3, 5, 8, 9)),
    (friendship_corona(2, 2), BUDGET_EXHAUSTED, 100_001, 14,
     (3, 8, 15, 13, 6, 12, 1, 2, 4, 5, 9, 10, 7, 11, 14, 16))],
    ids=["F4oO1", "f2oO2"])
def test_budgeted_search_path_pinned(g, status, nodes, colours, labels):
    out = exact_chi_la(g, SearchConfig(node_budget=100_000))
    assert out.status == status and out.nodes_explored == nodes
    best = out.certificate if status == EXACT else out.best_so_far
    assert out.chi == (colours if status == EXACT else None)
    assert best.color_count == colours
    assert best.labels == labels
    assert verify_certificate(best, g)


# -- validation -----------------------------------------------------------------

def test_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        feasible_with_k_colors(c3_o1(), 1)
    with pytest.raises(ValueError):
        feasible_with_k_colors(c3_o1(), c3_o1().p + 1)


def test_rejects_disconnected_graph():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        exact_chi_la(g)


def test_rejects_single_edge():
    with pytest.raises(ValueError):
        exact_chi_la(path(2))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(node_budget=-1)
    # a NaN budget passes no comparison, so it would never fire
    with pytest.raises(ValueError, match="time_budget"):
        SearchConfig(time_budget=math.nan)
    with pytest.raises(ValueError, match="node_budget"):
        SearchConfig(node_budget=math.nan)
    with pytest.raises(TypeError):
        SearchConfig(parallel_width=2)  # removed: one search path


# -- admissible pruning bound -----------------------------------------------------

def test_prune_bound_empty_partial():
    f2 = friendship_corona(2, 1)
    assert lower_bound_prune(f2, [None] * f2.q) == 7  # 6 before the light term
    # C3oO1: with 3 colours no weight is above q = 6, so the triangle's
    # weights, at least 2 * (1 + 2 + 3) + 4 + 5 + 6 = 27 together, would fit
    # in 3 * 6 = 18; the light-vertex term lifts 3 to 4.  With 4 colours
    # one weight is above q, and the triangle vertices that take it are
    # pairwise non-adjacent: the other two (at most 12 together) hold at
    # least 1 + (1 + 2 + 3 + 4 + 5) = 16, so the spare-colour test lifts 4
    # to 5, which is chi
    g = c3_o1()
    assert lower_bound_prune(g, [None] * g.q) == 5
    # C3oO2: each triangle vertex ends at least 1+2+3+4 = 10 > q = 9, so the
    # clique term counts three weights above q besides the six pendant
    # weights; the heavy-vertex term alone gave 1 + 6 = 7, and chi is 9
    g = corona(cycle(3), null_graph(2))
    assert lower_bound_prune(g, [None] * g.q) == 9


def test_prune_bound_complete_assignment_is_exact():
    from antimagic.construction import construct_odd
    rep = construct_odd(3)
    labels = list(rep.certificate.labels)
    assert lower_bound_prune(rep.graph, labels) == rep.certificate.color_count


def test_prune_bound_admissible_for_c3(f2_graph, f2_exact_outcome):
    # never exceeds the optimum it is bounding
    assert lower_bound_prune(c3_o1(), [None] * 6) <= 5
    assert lower_bound_prune(f2_graph, [None] * f2_graph.q) <= 7


# partials besides the random ones: a spare-colour test that took the r
# smallest weights and edge counts instead of the largest gives 4 on P4
# with the label 1 on its first edge, where the optimum is 3
KNOWN_PARTIALS = {path(4).content_hash(): [[1, None, None]]}


@pytest.mark.parametrize(
    "g", ORACLE_GRAPHS + CLIQUE_GRAPHS + [c3_o1()] + PENDANT_GRAPHS,
    ids=ORACLE_IDS + CLIQUE_IDS + ["C3oO1"] + PENDANT_IDS)
def test_prune_bound_never_overestimates(g):
    rng = random.Random(g.content_hash())
    partials = []
    for _ in range(10):
        fixed = rng.sample(range(g.q), rng.randint(0, g.q))
        partial = [None] * g.q
        for e, lab in zip(fixed, rng.sample(range(1, g.q + 1), len(fixed))):
            partial[e] = lab
        partials.append(partial)
    for partial in partials + KNOWN_PARTIALS.get(g.content_hash(), []):
        try:
            best = naive_exact_chi_la(g, partial)
        except ValueError:  # no valid completion: any bound holds
            continue
        assert lower_bound_prune(g, partial) <= best, partial


# the light-vertex term makes every proof of chi(f_n o O_1) >= 2n+3 close at
# the root (cases 2..7); on fans with n >= 4 and friendship coronas with
# m >= 2 the spare-colour test lifts the root one more, to the lemma
ROOT_LEMMA_CASES = ([(friendship_corona, n, 1) for n in range(2, 8)]
                    + [(fan_corona, n, 1) for n in range(4, 9)]
                    + [(fan_corona, n, 2) for n in range(4, 7)]
                    + [(fan_corona, 4, 3)]
                    + [(friendship_corona, n, 2) for n in range(2, 5)]
                    + [(friendship_corona, 2, 3)])
ROOT_LEMMA_IDS = [str(n) if m == 1 and family is friendship_corona
                  else f"{'F' if family is fan_corona else 'f'}{n}oO{m}"
                  for family, n, m in ROOT_LEMMA_CASES]


def _lemma(family, n, m) -> int:
    return (lb_fan if family is fan_corona else lb_friendship)(n, m)


@pytest.mark.parametrize("family, n, m", ROOT_LEMMA_CASES, ids=ROOT_LEMMA_IDS)
def test_prune_bound_root_reaches_lemma(family, n, m):
    g = family(n, m)
    assert lower_bound_prune(g, [None] * g.q) == _lemma(family, n, m)


# the lemma's value less one is proven infeasible at the root: 1 node
@pytest.mark.parametrize("family, n, m", [
    (fan_corona, 4, 1), (fan_corona, 5, 1), (fan_corona, 6, 1),
    (fan_corona, 4, 2), (friendship_corona, 2, 2), (friendship_corona, 3, 2)],
    ids=["F4oO1", "F5oO1", "F6oO1", "F4oO2", "f2oO2", "f3oO2"])
def test_lemma_minus_one_proven_at_root(family, n, m):
    k = _lemma(family, n, m) - 1
    out = feasible_with_k_colors(family(n, m), k)
    assert out.status == INFEASIBLE and out.infeasible_k == k
    assert out.nodes_explored == 1


def test_f2_o2_is_13():
    # the paper gives only the lower bound 13; this labeling (in edge-index
    # order) meets it, and 12 colours are proven too few at the root
    g = friendship_corona(2, 2)
    cert = make_certificate(
        g, [3, 5, 12, 13, 16, 7, 1, 2, 4, 6, 8, 9, 10, 11, 14, 15])
    assert cert.verdict.ok and cert.color_count == 13 == lb_friendship(2, 2)
    assert verify_certificate(cert, g)
    out = feasible_with_k_colors(g, 12)
    assert out.status == INFEASIBLE and out.nodes_explored == 1


# labelings at the lemma's count, in edge-index order; the root bound is the
# lemma, so these values are exact
LEMMA_LABELINGS = {
    "F4oO2": (fan_corona, 4, 2, [13, 3, 10, 17, 4, 1, 8, 6, 12, 15, 16, 5, 2,
                                 7, 11, 9, 14]),
    "f3oO2": (friendship_corona, 3, 2, [18, 11, 4, 20, 12, 1, 16, 9, 6, 7, 21,
                                        2, 17, 22, 23, 8, 3, 15, 14, 19, 13,
                                        10, 5]),
}


@pytest.mark.parametrize("name", sorted(LEMMA_LABELINGS))
def test_labeling_meets_the_lemma(name):
    family, n, m, labels = LEMMA_LABELINGS[name]
    g = family(n, m)
    lemma = _lemma(family, n, m)
    cert = make_certificate(g, labels)
    assert cert.verdict.ok and cert.color_count == lemma
    assert verify_certificate(cert, g)
    assert lower_bound_prune(g, [None] * g.q) == lemma


def test_prune_bound_spare_colour_f4_root():
    # F4oO1: q = 12, and the hub (degree 5, weight >= 15 > q) is the heavy
    # vertex, so the bound before the light terms is 1 + 5 pendant weights
    # = 6.  The light set is the four path vertices, all next to the hub;
    # they hold 3 path edges (both ends) and 8 hub and pendant edges (one
    # end), and S(j) below is the sum of the j smallest labels.
    g = fan_corona(4, 1)
    assert g.q == 12
    # with 6 colours they end at most 12 each, but S(11) + S(3) = 66 + 6 =
    # 72 > 4 * 12 = 48: the light-vertex term gives 7
    # with 7 colours one weight above q is spare, and the path vertices that
    # take it are pairwise non-adjacent: at most 4 - 2 = 2 of them (the path
    # has a matching of two edges).  If r of them take it, the rest end at
    # most 12 each; each of the r takes away its 2 hub and pendant edges
    # and at most 2 path edges, so
    #   r = 1: S(11 - 2) + S(3 - 2) = 45 + 1 = 46 > 3 * 12 = 36,
    #   r = 2: S(11 - 4) + S(0) = 28 > 2 * 12 = 24,
    # and the spare-colour test gives 8, the lemma's value
    assert lower_bound_prune(g, [None] * g.q) == 8 == lb_fan(4, 1)


def test_prune_bound_light_term_f3_root():
    # f3oO1: q = 16, and the hub (degree 7, weight >= 28) is the heavy
    # vertex, so the bound without the term is 1 + 7 pendant weights = 8.
    # With exactly 8 colours the hub's weight is the only one above q, so
    # the six triangle vertices (all next to the hub) end at most 16 each,
    # 96 together; but their 3 shared edges count twice and the 6 hub and
    # 6 pendant edges once, so their weights sum to at least
    # (1 + 2 + 3) + (1 + 2 + ... + 15) = 6 + 120 = 126 > 96.
    g = friendship_corona(3, 1)
    assert lower_bound_prune(g, [None] * g.q) == 9


def test_prune_bound_light_term_mid_search():
    # C3oO1 (q = 6) after the first three edges of the search order: vertex
    # 0 closes with 1 + 2 + 4 = 7, and the bound without the term is 1 + 3
    # pendant weights = 4.  With exactly 4 colours 7 is the only weight above
    # q, so vertices 1 and 2 (both next to 0) end at most 6 each, 12
    # together; they hold 1 + 2, and the free labels 3, 5, 6 on the edge
    # (1, 2) and their pendant edges add at least 2 * 3 + 5 + 6 = 17.
    g = c3_o1()
    assert g.edges[:4] == ((0, 1), (1, 2), (0, 2), (0, 3))
    assert _order_edges(g)[:3] == [3, 0, 2]
    # With 5 colours the one weight above q besides 7 can go to only one of
    # the adjacent 1 and 2; the other ends at most 6, but holds at least 1
    # plus the two smallest of 3, 5, 6 on its open edges: 9 > 6
    partial = [1, None, 2, 4, None, None]
    assert lower_bound_prune(g, partial) == 6
    assert naive_exact_chi_la(g, partial) == 6


def test_prune_bound_adjacent_tie_is_infeasible():
    f2 = friendship_corona(2, 1)
    # close hub (w=1+2+3+4+5) and u1 (w=1+6+8) with equal weight 15
    partial = [1, 2, 3, 4, 6, None, 5, 8, None, None, None]
    assert lower_bound_prune(f2, partial) == math.inf


@pytest.mark.parametrize("label", [2.5, True, "3", 3.0],
                         ids=["float", "bool", "str", "integral-float"])
def test_prune_bound_rejects_non_int_labels(label):
    f2 = friendship_corona(2, 1)
    with pytest.raises(ValueError):
        lower_bound_prune(f2, [label] + [None] * (f2.q - 1))


@pytest.mark.parametrize("k", [4.5, 5.0, True, "5"],
                         ids=["float", "integral-float", "bool", "str"])
def test_feasibility_rejects_non_int_k(k):
    with pytest.raises(ValueError):
        feasible_with_k_colors(c3_o1(), k)


def test_prune_bound_rejects_bad_partials():
    f2 = friendship_corona(2, 1)
    with pytest.raises(ValueError):
        lower_bound_prune(f2, [1, 1] + [None] * (f2.q - 2))
    with pytest.raises(ValueError):
        lower_bound_prune(f2, [f2.q + 1] + [None] * (f2.q - 1))
    with pytest.raises(ValueError):
        lower_bound_prune(f2, [None] * (f2.q - 1))
