"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import antimagic as am  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
from inputs import (MAX_Q, distinct_docs, ladder_instances,  # noqa: E402
                    random_connected_doc, relabeled_doc, rng_for, shape_key)
from spans import Span, Tracer, layer_metrics  # noqa: E402
from stats import Scaler, sampled_call, tail_percentile  # noqa: E402
from workloads import (ExactSolve, PassResult, Relabeled,  # noqa: E402
                       typical_pass_s)


def _relabeled(stream: int) -> dict:
    build, _value = ladder_instances()["f2oO1"]
    return relabeled_doc(build(), rng_for("relabeled", stream, "f2oO1"))


def test_relabeled_same_stream_same_graph():
    assert _relabeled(1) == _relabeled(1)


def test_relabeled_other_stream_other_graph():
    assert _relabeled(1)["edges"] != _relabeled(2)["edges"]


def test_relabeled_inputs_do_not_depend_on_the_seed():
    def solve_order(seed):
        wl = Relabeled(seed, Path("."), Path("."))
        wl.prepare(PassResult())
        return {name: g.edges for name, g, *_ in wl.items}, \
            [name for name, *_ in wl.items]

    graphs_1, order_1 = solve_order(1)
    graphs_2, order_2 = solve_order(2)
    assert graphs_1 == graphs_2
    assert sorted(order_1) == sorted(order_2) == sorted(Relabeled.INSTANCES)


def test_relabeled_is_a_plain_copy():
    base = am.friendship_corona(2, 1)
    g = am.Graph.from_doc(_relabeled(3))
    assert (g.p, g.q) == (base.p, base.q)
    assert sorted(g.degrees) == sorted(base.degrees)
    assert {r.kind for r in g.roles} == {"plain"}
    assert g.family is None


def _cache_graphs(seed: int) -> list:
    return distinct_docs(rng_for("cli", seed, "fill"), 20, set())


def test_cache_graphs_same_seed_same_graphs():
    assert _cache_graphs(1) == _cache_graphs(1)


def test_cache_graphs_other_seed_other_graphs():
    assert _cache_graphs(1) != _cache_graphs(2)


def test_cache_graphs_are_small_connected_and_distinct():
    docs = _cache_graphs(4)
    assert len({shape_key(d) for d in docs}) == len(docs)
    for doc in docs:
        g = am.Graph.from_doc(doc)
        assert 2 <= g.q <= MAX_Q and g.is_connected()


def test_shape_key_ignores_vertex_names_and_edge_order():
    rng = rng_for("test", 0, "shape")
    for _ in range(20):
        doc = random_connected_doc(rng)
        copy = relabeled_doc(am.Graph.from_doc(doc), rng)
        assert shape_key(copy) == shape_key(doc)


def test_shape_key_tells_a_path_from_a_star():
    path = {"p": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    star = {"p": 4, "edges": [[0, 1], [0, 2], [0, 3]]}
    assert shape_key(path) != shape_key(star)


def test_distinct_docs_skips_relabelings_of_seen_graphs():
    rng = rng_for("test", 0, "seen")
    first = distinct_docs(rng_for("test", 0, "first"), 30, set())
    seen = {shape_key(relabeled_doc(am.Graph.from_doc(d), rng))
            for d in first}
    more = distinct_docs(rng_for("test", 0, "first"), 30, seen)
    assert not {shape_key(d) for d in more} & \
        {shape_key(d) for d in first}


@pytest.mark.parametrize("n, percentile, beyond", [
    (20, 50, 10), (48, 79, 10), (100, 90, 10), (1000, 99, 10),
    (2000, 99, 20),
])
def test_tail_percentile_has_ten_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))   # order must not matter
    p, value, got_beyond = tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(1 for x in samples if x > value) == beyond


@pytest.mark.parametrize("n", [0, 1, 10, 19])
def test_tail_percentile_needs_twenty_samples(n):
    assert tail_percentile(list(range(n))) is None


def test_scaler_divides_by_the_bracketing_references():
    refs = iter([2.0, 2.0, 4.0])
    scaler = Scaler(lambda: next(refs), nominal=1.0)
    assert scaler.scale(3.0) == pytest.approx(1.5)
    assert scaler.scale(3.0) == pytest.approx(1.0)


def test_scaler_counts_samples_taken_during_the_operation():
    refs = iter([2.0, 4.0])
    scaler = Scaler(lambda: next(refs), nominal=1.0)
    # samples 2 (before), 1, 1 (during), 4 (after): mean 2
    assert scaler.scale(3.0, during=[1.0, 1.0]) == pytest.approx(1.5)


def test_sampled_call_samples_while_running_and_leaves_no_timer():
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, seconds, samples = sampled_call(spin, 0.3)
    assert result == "done"
    assert len(samples) >= 3
    # the spin ends at a fixed time, so the sampling comes out of it
    assert seconds < 0.3 - sum(samples) * 0.5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_typical_pass_takes_each_operation_at_its_median():
    runs = ([("a", 1.0), ("b", 5.0), ("w", 1.0), ("w", 3.0)],
            [("a", 3.0), ("b", 4.0), ("w", 2.0), ("w", 2.0)],
            [("a", 2.0), ("b", 9.0), ("w", 9.0), ("w", 1.0)])
    passes = []
    for times in runs:
        p = PassResult(scaler=Scaler(lambda: 0.5, nominal=1.0))
        for key, seconds in times:
            p.timed(key, seconds)
        passes.append(p)
    # a: 2, b: 5, w: two requests at the median of six samples, 2
    assert typical_pass_s(passes, scaled=False) == pytest.approx(11.0)
    assert typical_pass_s(passes) == pytest.approx(22.0)


def test_layer_self_time_subtracts_children():
    outer = Span("construction", "construct", 0.0, None)
    outer.end = 1.0
    build = Span("graphs", "friendship_corona", 0.1, outer)
    build.end = 0.4
    init = Span("graphs", "Graph.__init__", 0.2, build)
    init.end = 0.3
    cert = Span("labeling", "make_certificate", 0.5, outer)
    cert.end = 0.7
    m = layer_metrics([outer, build, init, cert])
    assert m["construction.self_s"] == pytest.approx(0.5)
    assert m["graphs.build_s"] == pytest.approx(0.3)
    assert m["graphs.builds"] == 1
    assert m["labeling.make_certificate_s"] == pytest.approx(0.2)


def test_tracer_sees_nested_calls_and_restores_originals():
    original = am.construction.friendship_corona
    tracer = Tracer()
    with tracer:
        am.construct(3)
    assert am.construction.friendship_corona is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["construct", "construct_odd", "friendship_corona"]
    assert layer_metrics(tracer.spans)["graphs.builds"] == 3


def test_replay_matches_exact_solve():
    g = am.corona(am.cycle(3), am.null_graph(1))
    out = am.exact_chi_la(g)
    r = run.replay(am, ExactSolve("C3oO1", g, out.chi, out.nodes_explored))
    assert r["ok"] and r["chi"] == 5
    assert r["steps"][-1]["status"] == am.INFEASIBLE


def test_replay_flags_a_wrong_node_count():
    g = am.corona(am.cycle(3), am.null_graph(1))
    out = am.exact_chi_la(g)
    assert not run.replay(am, ExactSolve("C3oO1", g, out.chi,
                                         out.nodes_explored + 1))["ok"]
