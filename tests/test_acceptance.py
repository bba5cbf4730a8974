"""Acceptance gate: the headline guarantees, one pass/fail line per check.

Each test exercises one deliverable end to end, prints a single
[PASS]/[FAIL] line with the measured numbers, and asserts the stated
budget.  Budgets are wall-clock seconds on the machine running the suite.
"""

import random
import time

from antimagic.bounds import (bound_report, lb_friendship,
                              sweep_fan_inequalities,
                              sweep_friendship_inequalities)
from antimagic.construction import construct_even, construct_odd
from antimagic.graphs import Graph, complete, corona, cycle, null_graph
from antimagic.labeling import verify_certificate
from antimagic.solver import (EXACT, INFEASIBLE, exact_chi_la,
                              feasible_with_k_colors)
from conftest import naive_exact_chi_la


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_odd_construction_suite():
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 200, 2):
        rep = construct_odd(n)
        cert = rep.certificate
        w = cert.weights
        if not (cert.verdict.ok and cert.color_count == 2 * n + 3
                and sorted(cert.labels) == list(range(1, 5 * n + 2))
                and w[0] == (n + 1) * (5 * n + 1)
                and set(w[1:n + 1]) == {(21 * n + 3) // 2}
                and set(w[n + 1:2 * n + 1]) == {(9 * n + 3) // 2}
                and verify_certificate(cert, rep.graph)):
            bad.append(n)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 5.0
    _report("odd-construction-suite", ok,
            f"n=3..199 odd, {len(bad)} failures, {dt:.2f}s (budget 5s)")


def test_even_construction_suite():
    t0 = time.perf_counter()
    bad = []
    for n in range(6, 201, 2):
        rep = construct_even(n)
        cert = rep.certificate
        w = cert.weights
        if not (cert.verdict.ok and cert.color_count == 2 * n + 3
                and sorted(cert.labels) == list(range(1, 5 * n + 2))
                and w[0] == 5 * n * n + 5 * n + 1
                and set(w[1:n]) == {21 * n // 2 + 8}
                and set(w[n + 1:2 * n]) == {9 * n // 2 + 4}
                and w[n] == 4 * n + 3 and w[2 * n] == 4 * n + 5
                and verify_certificate(cert, rep.graph)):
            bad.append(n)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 5.0
    _report("even-construction-suite", ok,
            f"n=6..200 even, {len(bad)} failures, {dt:.2f}s (budget 5s)")


def test_small_case_color_sets():
    rep3 = construct_odd(3)
    ok3 = rep3.colors == {1, 2, 3, 13, 14, 15, 16, 33, 64}
    rep6 = construct_even(6)
    ok6 = len(rep6.colors) == 15 and {21, 71, 211} <= rep6.colors
    _report("small-case-color-sets", ok3 and ok6,
            f"n=3 colors {'match' if ok3 else 'differ'}, "
            f"n=6 has {len(rep6.colors)} colors, "
            f"contains 21/71/211: {ok6}")


def test_solver_reference_values(f2_graph, f2_exact_outcome):
    t0 = time.perf_counter()
    c3 = exact_chi_la(corona(cycle(3), null_graph(1)))
    t_c3 = time.perf_counter() - t0
    t0 = time.perf_counter()
    k3 = exact_chi_la(corona(complete(3), null_graph(1)))
    t_k3 = time.perf_counter() - t0
    f2 = f2_exact_outcome
    infeasible6 = feasible_with_k_colors(f2_graph, 6)
    ok = (c3.status == EXACT and c3.chi == 5 and t_c3 < 10.0
          and k3.status == EXACT and k3.chi == 5 and t_k3 < 10.0
          and f2.status == EXACT and f2.chi == 7 and f2.wall_time < 600.0
          and infeasible6.status == INFEASIBLE)
    _report("solver-reference-values", ok,
            f"c3 corona chi={c3.chi} ({t_c3:.2f}s), "
            f"k3 corona chi={k3.chi} ({t_k3:.2f}s), "
            f"f2 corona chi={f2.chi} ({f2.wall_time:.2f}s), "
            f"f2 with 6 colors: {infeasible6.status}")


def _random_connected_graph(rng: random.Random) -> Graph:
    p = rng.randint(3, 6)
    edges = {(min(u, v), max(u, v))
             for v, u in ((v, rng.randrange(v)) for v in range(1, p))}
    spare = [(a, b) for a in range(p) for b in range(a + 1, p)
             if (a, b) not in edges]
    rng.shuffle(spare)
    room = min(7, p * (p - 1) // 2) - len(edges)
    edges.update(spare[:rng.randint(0, room)])
    return Graph(p, tuple(sorted(edges)))


def test_solver_matches_enumeration():
    rng = random.Random(20260825)
    t0 = time.perf_counter()
    mismatches = []
    for i in range(25):
        g = _random_connected_graph(rng)
        got = exact_chi_la(g)
        want = naive_exact_chi_la(g)
        if got.status != EXACT or got.chi != want:
            mismatches.append((i, g.p, g.q, got.chi, want))
    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 300.0
    _report("solver-matches-enumeration", ok,
            f"25 random graphs (q<=7), {len(mismatches)} mismatches, "
            f"{dt:.2f}s (budget 300s)")


def test_inequality_sweeps():
    t0 = time.perf_counter()
    fw = sweep_friendship_inequalities()
    sw = sweep_fan_inequalities()
    dt = time.perf_counter() - t0
    hub_bad = [w for w in fw if w.name == "friendship-hub-gap" and not w.holds]
    pair_bad = [w for w in fw
                if w.name == "friendship-inner-pair-sum" and not w.holds]
    top_bad = [(w.n, w.m) for w in fw
               if w.name == "friendship-top-color-sum"
               and w.holds != (w.m >= 2)]
    fan_hub_bad = [w for w in sw if w.name == "fan-hub-gap" and not w.holds]
    chain_fail = {(w.n, w.m) for w in sw
                  if w.name == "fan-light-sum-chain" and not w.holds}
    ok = (not hub_bad and not pair_bad and not top_bad and not fan_hub_bad
          and chain_fail == {(3, 1)} and dt < 10.0)
    _report("inequality-sweeps", ok,
            f"{len(fw)}+{len(sw)} witnesses in {dt:.2f}s (budget 10s); "
            f"hub/pair hold, top-color holds iff m>=2 "
            f"({len(top_bad)} exceptions), fan chain fails only at "
            f"{sorted(chain_fail)}")


def test_bound_report_consistency():
    bad = []
    for n in range(2, 31):
        rep = bound_report("friendship-corona", n, 1)
        if not (rep.exact == 2 * n + 3 == rep.lower == rep.upper
                and rep.provenance == "fn-o1-exact"
                and rep.lemma_lower == lb_friendship(n, 1)
                and rep.lower <= rep.exact <= rep.upper):
            bad.append(n)
    _report("bound-report-consistency", not bad,
            f"n=2..30, m=1: exact=2n+3 with construction provenance and "
            f"raw counting bound attached, {len(bad)} failures")
