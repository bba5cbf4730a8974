"""Graph family generators, corona product, and serialization."""

import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimagic
from antimagic.construction import construct
from antimagic.graphs import (HUB, HUB_PENDANT, INNER, PENDANT, PLAIN,
                              Graph, VertexRole, complete, corona, cycle, fan,
                              fan_corona, friendship, friendship_corona,
                              null_graph, path)
from antimagic.iso import _isomorphism
from antimagic.labeling import verify_certificate


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
        assert {u, v} <= set(g.neighbors(hub))
        assert set(g.neighbors(u)) == {hub, v}
        assert set(g.neighbors(v)) == {hub, u}
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


# the small cases and both ends of n = 2..100, m = 1..20
FORMULA_NS = (2, 3, 4, 5, 6, 50, 99, 100)
FORMULA_MS = (1, 2, 3, 10, 19, 20)


def test_corona_q_formula_friendship():
    for n in FORMULA_NS:
        for m in FORMULA_MS:
            g = friendship_corona(n, m)
            assert g.q == m * (2 * n + 1) + 3 * n
            assert g.p == (2 * n + 1) * (1 + m)


def test_corona_q_formula_fan():
    for n in FORMULA_NS:
        for m in FORMULA_MS:
            g = fan_corona(n, m)
            assert g.q == m * (n + 1) + 2 * n - 1


@given(st.integers(2, 30), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_degree_sum_is_twice_edge_count(n, m):
    g = friendship_corona(n, m)
    assert sum(g.degrees) == 2 * g.q


@pytest.mark.parametrize("make, m", [
    (lambda: friendship_corona(2, 1), 1),
    (lambda: fan_corona(3, 1), 2),
    (lambda: corona(cycle(3), null_graph(1)), 1),
    (lambda: friendship_corona(3, 2), 3),
], ids=["f2oO1-O1", "F3oO1-O2", "C3oO1-O1", "f3oO2-O3"])
def test_corona_of_a_pendant_corona(make, m):
    g = make()
    gg = corona(g, null_graph(m))
    assert (gg.p, gg.q) == (g.p * (1 + m), g.q + g.p * m)
    assert len(set(gg.roles)) == gg.p
    assert gg.roles[:g.p] == g.roles
    # the new copies are plain vertices named by their index
    assert gg.roles[g.p:] == tuple(VertexRole(PLAIN, i=v)
                                   for v in range(g.p, gg.p))
    assert gg.is_connected()
    assert sorted(gg.degrees)[:g.p * m] == [1] * (g.p * m)


@pytest.mark.parametrize("kind, pendant", [
    (INNER, VertexRole(PENDANT, "u", 1, 1)),
    (HUB, VertexRole(HUB_PENDANT, j=1)),
], ids=[INNER, HUB])
def test_corona_names_pendants_after_repeated_roles(kind, pendant):
    # two inner vertices with one (side, i), or two hubs, give their copies
    # the same pendant name: roles only name vertices, so they may repeat
    g = Graph(2, [(0, 1)], [VertexRole(kind, "u", 1, 1),
                            VertexRole(kind, "u", 1, 2)])
    gg = corona(g, null_graph(1))
    assert (gg.p, gg.q) == (4, 3)
    assert gg.roles == g.roles + (pendant, pendant)


def test_corona_names_pendants_of_inner_roles_that_carry_a_j():
    g = Graph(2, [(0, 1)], [VertexRole(INNER, "u", 1, 1),
                            VertexRole(INNER, "v", 1, 2)])
    gg = corona(g, null_graph(1))
    assert gg.roles[2:] == (VertexRole(PENDANT, "u", 1, 1),
                            VertexRole(PENDANT, "v", 1, 1))


def test_corona_copy_may_repeat_a_plain_role_of_the_base():
    g = Graph(2, [(0, 1)], [VertexRole(PLAIN, i=2), VertexRole(PLAIN, i=0)])
    # copy vertex 2 of the corona is plain p2, as base vertex 0 is
    assert [r.name() for r in corona(g, path(2)).roles] == [
        "p2", "p0", "p2", "p3", "p4", "p5"]
    # a hub's copy is a named pendant
    g = Graph(2, [(0, 1)], [VertexRole(HUB), VertexRole(PLAIN, i=3)])
    assert [r.name() for r in corona(g, null_graph(2)).roles] == [
        "x", "p3", "x_1", "x_2", "p4", "p5"]


@pytest.mark.parametrize("make, family", [
    (lambda: friendship_corona(3, 2), "corona(friendship(3),null(2))"),
    (lambda: fan_corona(4, 1), "corona(fan(4),null(1))"),
    (lambda: corona(cycle(4), path(3)), "corona(cycle(4),path(3))"),
    (lambda: corona(complete(3), complete(1)),
     "corona(complete(3),complete(1))"),
    (lambda: corona(friendship_corona(2, 1), null_graph(1)),
     "corona(corona(friendship(2),null(1)),null(1))"),
    (lambda: corona(Graph(2, [(0, 1)]), null_graph(1)), None),
    (lambda: corona(cycle(3), Graph(1, [])), None),
], ids=["f3oO2", "F4oO1", "C4oP3", "K3oK1", "f2oO1oO1", "unnamed-g",
        "unnamed-h"])
def test_corona_family_names(make, family):
    assert make().family == family


@pytest.mark.parametrize("make, message", [
    (lambda: friendship_corona(1, 1), "friendship graph needs n >= 2, got 1"),
    (lambda: friendship_corona(2, 0),
     "null graph needs at least 1 vertex, got 0"),
    (lambda: friendship_corona(1, 0), "friendship graph needs n >= 2, got 1"),
    (lambda: fan_corona(1, 1), "fan graph needs n >= 2, got 1"),
    (lambda: fan_corona(3, 0),
     "null graph needs at least 1 vertex, got 0"),
], ids=["f1oO1", "f2oO0", "f1oO0", "F1oO1", "F3oO0"])
def test_corona_family_domain_errors(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_corona_pendant_roles():
    g = friendship_corona(2, 2)
    hub = g.roles.index(VertexRole(HUB))
    x2 = g.roles.index(VertexRole(HUB_PENDANT, j=2))
    assert g.neighbors(x2) == (hub,) and g.degree(x2) == 1
    u1 = g.roles.index(VertexRole(INNER, "u", 1))
    p = g.roles.index(VertexRole(PENDANT, "u", 1, 2))
    assert g.neighbors(p) == (u1,) and g.degree(p) == 1


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


@pytest.mark.parametrize("edges, fault", [
    ([(0, 1), (1, 0), (2, 2)], "duplicate edge (0, 1)"),
    ([(2, 2), (0, 1), (1, 0)], "loop at vertex 2"),
    ([(0, 1), (0, 3), (2, 2)], "edge (0,3) out of range for order 3"),
    ([(2, 2), (0, 3)], "loop at vertex 2"),
    ([(1, 2), (2, 1), (0, 0.0)], "duplicate edge (1, 2)"),
    ([(0, 1.0), (1, 1)], "vertex id 1.0 is not an integer"),
    ([(0, 1), (True, 2)], "vertex id True is not an integer"),
    ([(0, 1), ("1", 2)], "vertex id '1' is not an integer"),
    ([(0, 1), (1, 2, 0)], "edge (1, 2, 0) is not a pair of vertex ids"),
    ([(0, 1), 2], "edge 2 is not a pair of vertex ids"),
    ([(-1, 1), (0, 1), (0, 1)], "edge (-1,1) out of range for order 3"),
])
def test_graph_error_names_first_fault(edges, fault):
    with pytest.raises(ValueError) as exc:
        Graph(3, edges)
    assert str(exc.value) == fault


_vertex_ids = st.one_of(st.integers(-1, 4), st.booleans(), st.just(1.0))


@given(st.integers(1, 4), st.lists(st.tuples(_vertex_ids, _vertex_ids),
                                   max_size=6))
@settings(max_examples=300, deadline=None)
def test_graph_accepts_exactly_the_simple_edge_lists(p, edges):
    keys = [(min(e), max(e)) for e in edges]
    simple = (all(type(x) is int and 0 <= x < p for e in edges for x in e)
              and all(a < b for a, b in keys) and len(set(keys)) == len(keys))
    if simple:
        assert Graph(p, edges).edges == tuple(keys)
    else:
        with pytest.raises(ValueError):
            Graph(p, edges)


@pytest.mark.parametrize("p", ["3", 3.0, True, None])
def test_graph_order_must_be_an_int(p):
    with pytest.raises(ValueError, match="graph order"):
        Graph(p, [])


def test_graph_accepts_repeated_roles_and_compares_by_structure():
    twin_hubs = Graph(2, [(0, 1)], [VertexRole(HUB), VertexRole(HUB)])
    assert twin_hubs.roles == (VertexRole(HUB),) * 2
    # roles only name vertices: graphs that differ in them alone are one
    # graph to equality, hashing and the cache key
    plain = Graph(2, [(0, 1)])
    assert twin_hubs == plain and hash(twin_hubs) == hash(plain)
    assert twin_hubs.content_hash() == plain.content_hash()
    assert twin_hubs != Graph(3, [(0, 1)])
    assert twin_hubs != Graph(2, [])


def test_neighbors_and_edge_index():
    g = cycle(4)
    assert set(g.neighbors(0)) == {1, 3}
    e = g.edge_index(1, 0)
    assert g.edges[e] in ((0, 1), (1, 0))
    with pytest.raises(KeyError):
        g.edge_index(0, 2)


def _verified_construction_graph(n):
    """construct(n)'s graph once its certificate has re-verified: neither
    step asks for adjacency or the edge index."""
    report = construct(n)
    assert verify_certificate(report.certificate, report.graph)
    assert report.graph._adj is None
    return report.graph


# graphs that have not yet answered an edge_index call
UNINDEXED = {
    "friendship-corona-5-2": lambda: friendship_corona(5, 2),
    "from-doc-copy": lambda: Graph.from_doc(friendship_corona(5, 2).to_doc()),
    "construct-7-verified": lambda: _verified_construction_graph(7),
}


@pytest.mark.parametrize("name", sorted(UNINDEXED))
def test_edge_index_is_built_on_first_call(name):
    g = UNINDEXED[name]()
    assert g._edge_index is None
    for i, (a, b) in enumerate(g.edges):
        assert g.edge_index(a, b) == g.edge_index(b, a) == i
    edges = set(g.edges)
    a, b = next((a, b) for a in range(g.p) for b in range(a + 1, g.p)
                if (a, b) not in edges)
    with pytest.raises(KeyError, match=f"no edge between {b} and {a}"):
        g.edge_index(b, a)


def test_connectivity():
    assert friendship_corona(3, 2).is_connected()
    two_paths = Graph(4, [(0, 1), (2, 3)])
    assert not two_paths.is_connected()


def _connected_from_edges(p, edges) -> bool:
    parent = list(range(p))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        parent[root(a)] = root(b)
    return len({root(v) for v in range(p)}) == 1


# each query runs first on a fresh graph, so it is the one that indexes the
# adjacency; the expected value is computed from the edge list alone
ADJACENCY_QUERIES = {
    "neighbors": (lambda g: [g.neighbors(v) for v in range(g.p)],
                  lambda p, edges: [tuple(b if a == v else a
                                          for a, b in edges if v in (a, b))
                                    for v in range(p)]),
    "degree": (lambda g: [g.degree(v) for v in range(g.p)],
               lambda p, edges: [sum(v in e for e in edges)
                                 for v in range(p)]),
    "degrees": (lambda g: g.degrees,
                lambda p, edges: tuple(sum(v in e for e in edges)
                                       for v in range(p))),
    "is_connected": (lambda g: g.is_connected(), _connected_from_edges),
    "to_dot": (lambda g: [line for line in g.to_dot().splitlines()
                          if "--" in line],
               lambda p, edges: [f"  {a} -- {b};" for a, b in edges]),
}

ADJACENCY_GRAPHS = {
    "init": lambda: Graph(6, [(0, 1), (2, 1), (4, 3), (5, 4), (1, 4)]),
    "init-split": lambda: Graph(5, [(3, 4), (0, 2)]),
    "init-single": lambda: Graph(1, []),
    "doc": lambda: Graph.from_doc(fan_corona(3, 2).to_doc()),
    "doc-split": lambda: Graph.from_doc(Graph(4, [(0, 1), (2, 3)]).to_doc()),
}


@pytest.mark.parametrize("query", ADJACENCY_QUERIES)
@pytest.mark.parametrize("build", ADJACENCY_GRAPHS)
def test_adjacency_queries_agree_with_edges(build, query):
    g = ADJACENCY_GRAPHS[build]()
    ask, expect = ADJACENCY_QUERIES[query]
    assert ask(g) == expect(g.p, g.edges)
    for other, _ in ADJACENCY_QUERIES.values():  # and once indexed
        other(g)
    assert ask(g) == expect(g.p, g.edges)


def test_equality_ignores_whether_adjacency_is_indexed():
    a, b = fan_corona(3, 2), Graph.from_doc(fan_corona(3, 2).to_doc())
    assert a.degrees  # index a only
    assert a == b and b == a and hash(a) == hash(b)
    assert a.content_hash() == b.content_hash()
    assert len({a, b}) == 1
    assert b.is_connected()
    assert a == b and hash(a) == hash(b)


def _adjacency(g):
    return [g.neighbors(v) for v in range(g.p)]


def test_isomorphism_refuses_graphs_of_different_orders():
    # the halves of the disjoint union differ in size, so some colour cell
    # is unbalanced and the search gives up at its first refinement
    short, long = _adjacency(path(5)), _adjacency(path(6))
    assert _isomorphism(short, [0] * 5, [0] * 6, long) is None
    assert _isomorphism(long, [0] * 6, [0] * 5, short) is None
    pi = _isomorphism(short, [0] * 5, [0] * 5, _adjacency(path(5)))
    assert pi is not None and sorted(pi) == list(range(5))


@st.composite
def coloured_graphs(draw, max_p=7, p=None):
    """(adjacency, int colouring, a vertex permutation) on p <= max_p
    vertices, or on exactly ``p``."""
    if p is None:
        p = draw(st.integers(1, max_p))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = [[] for _ in range(p)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    colours = draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
    return adj, colours, draw(st.permutations(range(p)))


def _permuted(adj, colours, perm):
    """The same coloured graph with vertex v renamed perm[v]."""
    new_adj, new_colours = [None] * len(adj), [None] * len(adj)
    for v, ns in enumerate(adj):
        new_adj[perm[v]] = [perm[u] for u in ns]
        new_colours[perm[v]] = colours[v]
    return new_adj, new_colours


def _is_isomorphism(pi, adj, left, right, other) -> bool:
    """pi maps ``adj`` onto ``other`` and ``left`` onto ``right``."""
    return (sum(map(len, adj)) == sum(map(len, other))
            and all(left[v] == right[pi[v]] for v in range(len(adj)))
            and all(pi[b] in other[pi[a]] for a, ns in enumerate(adj)
                    for b in ns))


@given(coloured_graphs(),
       st.sampled_from(["renamed", "recoloured", "other"]), st.data())
@settings(max_examples=200, deadline=None)
def test_isomorphism_matches_brute_force(case, mode, data):
    adj, left, perm = case
    p = len(adj)
    if mode == "other":  # a graph of its own on as many vertices
        other, right, _ = data.draw(coloured_graphs(p=p))
    else:  # a renamed copy, one of its colours changed when "recoloured"
        other, right = _permuted(adj, left, perm)
        if mode == "recoloured":
            right[data.draw(st.sampled_from(range(p)))] = data.draw(
                st.integers(0, 3))
    pi = _isomorphism(adj, left, right, other)
    exists = any(_is_isomorphism(sigma, adj, left, right, other)
                 for sigma in itertools.permutations(range(p)))
    assert (pi is not None) == exists
    if pi is not None:
        assert sorted(pi) == list(range(p))
        assert _is_isomorphism(pi, adj, left, right, other)


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


def test_dot_export_escapes_vertex_names():
    # a role's side comes from the graph file: a quote in it must not close
    # the label and add an attribute, and a backslash must not escape one
    doc = path(2).to_doc()
    doc["roles"][0] = {"kind": INNER, "side": 'a"] [x="1\\', "i": 1}
    lines = Graph.from_doc(doc).to_dot(weights=[5, 6]).splitlines()
    assert lines[1] == r'  0 [label="a\"] [x=\"1\\1\nw=5"];'
    assert lines[2] == r'  1 [label="w2\nw=6"];'


# sha256 of (p, edges, role docs, content hash) for each graph below,
# recorded before vertex roles became named tuples
GOLDEN_GRAPHS_SHA256 = \
    "33e8adb6121e4ae73bd1c70b3051e503bd61dd90242e1932dc77a88d214da2a2"


def test_graphs_match_golden_digest():
    graphs = [friendship_corona(n, m) for n in range(2, 6) for m in range(1, 4)]
    graphs += [fan_corona(n, m) for n in range(2, 6) for m in range(1, 4)]
    graphs += [corona(complete(4), complete(1)), corona(cycle(4), path(3)),
               corona(path(3), null_graph(2)), corona(complete(3), cycle(3))]
    docs = [[g.p, [list(e) for e in g.edges], [r.to_doc() for r in g.roles],
             g.content_hash()] for g in graphs]
    blob = json.dumps(docs, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_GRAPHS_SHA256


def _compact_json_sha256(g: Graph) -> str:
    """The content hash as its format states it: hashlib's SHA-256 of the
    compact JSON of the order and the edge list."""
    blob = json.dumps({"p": g.p, "edges": [list(e) for e in g.edges]},
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_content_hash_is_sha256_of_compact_json():
    # the graphs of test_graphs_match_golden_digest
    graphs = [friendship_corona(n, m) for n in range(2, 6) for m in range(1, 4)]
    graphs += [fan_corona(n, m) for n in range(2, 6) for m in range(1, 4)]
    graphs += [corona(complete(4), complete(1)), corona(cycle(4), path(3)),
               corona(path(3), null_graph(2)), corona(complete(3), cycle(3))]
    for g in graphs:
        assert g.content_hash() == _compact_json_sha256(g), g


@st.composite
def random_graphs(draw, max_p=40):
    p = draw(st.integers(1, max_p))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(p, edges)


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_content_hash_matches_hashlib_on_random_graphs(g):
    assert g.content_hash() == _compact_json_sha256(g)


# the cache key and certificate graph_hash of C3oO1: a change of encoding or
# hash would orphan every cache and certificate written before it
C3_O1_CONTENT_HASH = \
    "a58bc20298fa08141d3cb9e67aff271c1624b1c54f1ba2c3c96325f13af4af64"


def test_content_hash_literal_is_pinned():
    assert corona(cycle(3), null_graph(1)).content_hash() == C3_O1_CONTENT_HASH


def test_content_hash_falls_back_to_hashlib():
    # an interpreter without CPython's built-in SHA-256 module hashes
    # through hashlib, to the same digest
    script = ("import sys\n"
              "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
              "import hashlib\n"
              "from antimagic import graph, graphs\n"
              "g = graphs.corona(graphs.cycle(3), graphs.null_graph(1))\n"
              "print(graph.sha256 is hashlib.sha256, g.content_hash())\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(antimagic.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", C3_O1_CONTENT_HASH]


# sha256 of to_dot() for one small instance of each `gen` family, recorded
# while Graph still refused repeated roles: the vertex names must not change
@pytest.mark.parametrize("make, digest", [
    (lambda: friendship_corona(2, 1),
     "85b1944a40b5d99bdc4e01ea3fa6c581d2f99cfd200497d52715153006d0f683"),
    (lambda: fan_corona(3, 1),
     "84182cf75499a769e54341a88fdf655a35c7fb49da4c215c96bbb574efd0c92e"),
    (lambda: corona(cycle(3), null_graph(1)),
     "e8a63a84c8957cd114acd8cf418597d7774afc288beb48d59bf143f75b8b1fb2"),
    (lambda: corona(complete(4), complete(1)),
     "16f6a1ae70da33df31bb9a0c29bb79495e432d66616b1a9a364513f8f4fbb457"),
    (lambda: friendship(2),
     "82b89f5924aefaa2bb213f0e03d98a5c2e09bb4ac92db3bf1527d863c41cc71b"),
    (lambda: fan(3),
     "7accc03623d9a31cb3c1874edeaf4553b6e625054d7b1c403cc484882d80fcdf"),
    (lambda: cycle(4),
     "01f237fb8579399a33c9302dad290ca95461546e888ad7b67d8089107a7cea36"),
    (lambda: path(3),
     "55838a03ccd465bc65a9d17e3eb7a05d4824e21b156afba2b71df4f15acdf18d"),
    (lambda: complete(4),
     "b85b051695d02d50208c1601f9042927cd3a19fe1a2714880a975c0887084dfb"),
    (lambda: null_graph(2),
     "871e7ba99653547b199715e89b49f92e06ab763453f12ce486cd55f357745999"),
], ids=["friendship-corona", "fan-corona", "c3-corona", "kn-k1",
        "friendship", "fan", "cycle", "path", "complete", "null"])
def test_dot_export_matches_digest(make, digest):
    assert hashlib.sha256(make().to_dot().encode()).hexdigest() == digest


def test_dot_export_of_a_certificate_matches_digest():
    # f3oO1 with its construction's labels and weights, recorded as above
    report = construct(3)
    cert = report.certificate
    dot = report.graph.to_dot(labels=cert.labels, weights=cert.weights)
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "c5881648a84368881b424f26bb441f223858aba4a44638ee2201f10aca1ef829")


def test_vertex_role_is_immutable_and_hashable():
    role = VertexRole(PENDANT, "u", 1, 2)
    with pytest.raises(AttributeError):
        role.j = 3
    twin = VertexRole(PENDANT, side="u", i=1, j=2)
    assert twin == role and hash(twin) == hash(role)
    assert twin != VertexRole(PENDANT, "v", 1, 2)


@pytest.mark.parametrize("role", [
    VertexRole(HUB), VertexRole(INNER, "u", 3), VertexRole(INNER, "", 2),
    VertexRole(HUB_PENDANT, j=2), VertexRole(PENDANT, "v", 1, 4),
    VertexRole(PENDANT, "", 2, 1), VertexRole(PLAIN, i=5), VertexRole(PLAIN),
])
def test_vertex_role_doc_round_trip(role):
    assert VertexRole.from_doc(role.to_doc()) == role


@pytest.mark.parametrize("doc", [
    3, ["hub"], {"kind": "moon"}, {"kind": "inner", "i": "1"},
    {"kind": "pendant", "i": 1, "j": True}, {"kind": "inner", "side": 1},
])
def test_vertex_role_rejects_malformed_docs(doc):
    with pytest.raises(ValueError):
        VertexRole.from_doc(doc)


@pytest.mark.parametrize("field, value", [
    ("roles", "x"), ("edges", {"0": 1}), ("p", "3"),
    ("roles", [{"kind": "inner", "i": 1}] * 2),
])
def test_doc_rejects_malformed_fields(field, value):
    doc = cycle(3).to_doc()
    doc[field] = value
    with pytest.raises(ValueError):
        Graph.from_doc(doc)


def test_doc_must_be_an_object():
    with pytest.raises(ValueError, match="not a JSON object"):
        Graph.from_doc([cycle(3).to_doc()])
