"""Graph family generators, corona product, and serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.graphs import (HUB, HUB_PENDANT, INNER, PENDANT, Graph,
                              VertexRole, complete, corona, cycle, fan,
                              fan_corona, friendship, friendship_corona,
                              null_graph, path)


def test_friendship_sizes():
    for n, p, q in [(2, 5, 6), (3, 7, 9)]:
        g = friendship(n)
        assert (g.p, g.q) == (p, q)
    assert friendship(6).degree(0) == 12


def test_friendship_structure():
    g = friendship(3)
    hub = g.roles.index(VertexRole(HUB))
    assert g.degree(hub) == 6
    for i in range(1, 4):
        u = g.roles.index(VertexRole(INNER, "u", i))
        v = g.roles.index(VertexRole(INNER, "v", i))
        assert g.has_edge(hub, u) and g.has_edge(hub, v) and g.has_edge(u, v)
        assert g.degree(u) == g.degree(v) == 2


def test_friendship_domain():
    with pytest.raises(ValueError):
        friendship(1)


def test_fan_sizes():
    g = fan(3)
    assert (g.p, g.q) == (4, 5)
    assert fan(4).degree(fan(4).roles.index(VertexRole(HUB))) == 4
    with pytest.raises(ValueError):
        fan(1)


def test_fan_2_is_triangle():
    g = fan(2)
    assert (g.p, g.q) == (3, 3)
    assert all(g.degree(v) == 2 for v in range(3))


def test_plain_families():
    assert (null_graph(1).p, null_graph(1).q) == (1, 0)
    assert (cycle(3).p, cycle(3).q) == (3, 3)
    assert complete(3).q == 3
    assert complete(5).q == 10
    assert path(1).q == 0
    assert path(4).q == 3
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        null_graph(0)


def test_corona_sizes():
    g = corona(friendship(2), null_graph(1))
    assert (g.p, g.q) == (10, 11)
    assert corona(fan(3), null_graph(1)).q == 9
    k = corona(complete(3), complete(1))
    assert (k.p, k.q) == (6, 6)


def test_corona_q_formula_friendship():
    for n in range(2, 101):
        for m in range(1, 21):
            g = friendship_corona(n, m)
            assert g.q == m * (2 * n + 1) + 3 * n
            assert g.p == (2 * n + 1) * (1 + m)


def test_corona_q_formula_fan():
    for n in range(2, 101):
        for m in range(1, 21):
            g = fan_corona(n, m)
            assert g.q == m * (n + 1) + 2 * n - 1


@given(st.integers(2, 30), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_degree_sum_is_twice_edge_count(n, m):
    g = friendship_corona(n, m)
    assert sum(g.degrees) == 2 * g.q


def test_corona_pendant_roles():
    g = friendship_corona(2, 2)
    hub = g.roles.index(VertexRole(HUB))
    x2 = g.roles.index(VertexRole(HUB_PENDANT, j=2))
    assert g.has_edge(hub, x2) and g.degree(x2) == 1
    u1 = g.roles.index(VertexRole(INNER, "u", 1))
    p = g.roles.index(VertexRole(PENDANT, "u", 1, 2))
    assert g.has_edge(u1, p) and g.degree(p) == 1


def test_generation_is_deterministic():
    a = friendship_corona(4, 3)
    b = friendship_corona(4, 3)
    assert a.edges == b.edges
    assert a.to_doc() == b.to_doc()
    assert a.content_hash() == b.content_hash()
    assert a == b and hash(a) == hash(b)


def test_content_hash_ignores_roles_but_not_structure():
    assert cycle(3).content_hash() != cycle(4).content_hash()
    # same vertex/edge structure built different ways hashes the same
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.content_hash() == cycle(3).content_hash()


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])  # endpoint out of range


def test_graph_rejects_duplicate_roles():
    with pytest.raises(ValueError, match="duplicate role"):
        Graph(2, [(0, 1)], [VertexRole(HUB), VertexRole(HUB)])


def test_neighbors_and_edge_index():
    g = cycle(4)
    assert set(g.neighbors(0)) == {1, 3}
    e = g.edge_index(1, 0)
    assert g.edges[e] in ((0, 1), (1, 0))
    with pytest.raises(KeyError):
        g.edge_index(0, 2)


def test_connectivity():
    assert friendship_corona(3, 2).is_connected()
    two_paths = Graph(4, [(0, 1), (2, 3)])
    assert not two_paths.is_connected()


def test_doc_round_trip():
    g = fan_corona(3, 2)
    doc = g.to_doc()
    h = Graph.from_doc(doc)
    assert h == g
    assert h.roles == g.roles
    assert h.family == g.family


def test_doc_rejects_inconsistent_q():
    doc = cycle(3).to_doc()
    doc["q"] = 7
    with pytest.raises(ValueError):
        Graph.from_doc(doc)


def test_dot_export_mentions_roles():
    dot = friendship(2).to_dot()
    assert dot.startswith("graph")
    assert "u1" in dot and "--" in dot
