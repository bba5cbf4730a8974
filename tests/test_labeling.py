"""Weight computation, local antimagic verification, certificates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.graphs import Graph, corona, cycle, friendship_corona, null_graph
from antimagic.labeling import (Certificate, GraphMismatchError,
                                InvalidLabelingError, make_certificate,
                                validate_labeling, verify_certificate,
                                weights)


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def test_star_weights():
    g = star(3)
    w = weights(g, [1, 2, 3])
    assert w[0] == 6
    assert sorted(w[1:]) == [1, 2, 3]


def test_single_edge_always_violates():
    g = Graph(2, [(0, 1)])
    verdict = make_certificate(g, [1]).verdict
    assert not verdict.ok
    assert verdict.witness == 0


def test_triangle_all_labelings_work():
    g = cycle(3)
    verdict = make_certificate(g, [1, 2, 3]).verdict
    assert verdict.ok
    assert make_certificate(g, [1, 2, 3]).color_count == 3
    assert sorted(weights(g, [1, 2, 3])) == [3, 4, 5]


def test_violation_reports_lowest_edge():
    g = Graph(4, [(0, 1), (2, 3)])
    verdict = make_certificate(g, [1, 2]).verdict
    assert not verdict.ok
    assert verdict.witness == 0  # both edges tie; the first one is reported
    w = weights(g, [1, 2])
    assert w[0] == w[1]


def test_bijectivity_validation():
    g = cycle(3)
    with pytest.raises(InvalidLabelingError) as err:
        validate_labeling(g, [1, 1, 2])
    assert err.value.bad_label == 1
    with pytest.raises(InvalidLabelingError) as err:
        validate_labeling(g, [1, 2, 4])
    assert err.value.bad_label == 4
    with pytest.raises(InvalidLabelingError):
        validate_labeling(g, [1, 2])  # wrong length


@given(st.lists(st.one_of(st.integers(-1, 6), st.booleans(), st.just(2.0)),
                max_size=5))
@settings(max_examples=200, deadline=None)
def test_validation_accepts_exactly_the_permutations(labels):
    g = star(len(labels))
    if (all(type(x) is int for x in labels)
            and sorted(labels) == list(range(1, g.q + 1))):
        validate_labeling(g, labels)
    else:
        with pytest.raises(InvalidLabelingError):
            validate_labeling(g, labels)


def _scan_verdict(q, labels):
    """(message, bad_label) of the first fault, by the edge-order scan that
    validate_labeling names faults with, or None for a permutation of 1..q."""
    if len(labels) != q:
        return f"expected {q} labels, got {len(labels)}", None
    seen = set()
    for lab in labels:
        if not isinstance(lab, int) or isinstance(lab, bool) or not 1 <= lab <= q:
            return f"label {lab!r} outside 1..{q}", lab
        if lab in seen:
            return f"duplicate label {lab}", lab
        seen.add(lab)
    return None


class Label(int):
    pass


@pytest.mark.parametrize("labels, message, bad", [
    ([True, 2, 3], "label True outside 1..3", True),
    ([1, 2.0, 3], "label 2.0 outside 1..3", 2.0),
    ([1, 2, "3"], "label '3' outside 1..3", "3"),
    ([1, 2], "expected 3 labels, got 2", None),
    ([1, 2, 3, 3], "expected 3 labels, got 4", None),
    ([2, 2, 4], "duplicate label 2", 2),
    ([4, 2, 2], "label 4 outside 1..3", 4),
    ([0, 1, 2], "label 0 outside 1..3", 0),
    ([3, 1, 3], "duplicate label 3", 3),
], ids=["bool", "float", "str", "short", "long", "dup-then-range",
        "range-then-dup", "zero", "dup-max"])
def test_validation_names_the_first_bad_label(labels, message, bad):
    g = cycle(3)
    assert _scan_verdict(g.q, labels) == (message, bad)
    with pytest.raises(InvalidLabelingError) as err:
        validate_labeling(g, labels)
    assert str(err.value) == message
    assert err.value.bad_label == bad and type(err.value.bad_label) is type(bad)


def test_validation_accepts_an_int_subclass():
    g = cycle(3)
    for labels in ([Label(2), 1, 3], (Label(1), Label(2), Label(3))):
        validate_labeling(g, labels)
        assert weights(g, labels) == weights(g, [int(x) for x in labels])


@given(st.lists(st.one_of(st.integers(-1, 6), st.booleans(), st.just(2.0),
                          st.builds(Label, st.integers(0, 6))),
                max_size=6),
       st.integers(0, 1))
@settings(max_examples=300, deadline=None)
def test_validation_matches_the_scan(labels, extra):
    g = star(max(1, len(labels) - extra))
    expected = _scan_verdict(g.q, labels)
    if expected is None:
        validate_labeling(g, labels)
    else:
        with pytest.raises(InvalidLabelingError) as err:
            validate_labeling(g, labels)
        assert (str(err.value), err.value.bad_label) == expected


@st.composite
def graph_and_labeling(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    g = friendship_corona(n, m)
    perm = draw(st.permutations(list(range(1, g.q + 1))))
    return g, perm


@given(graph_and_labeling())
@settings(max_examples=60, deadline=None)
def test_weight_conservation(case):
    g, labels = case
    w = weights(g, labels)
    assert sum(w) == g.q * (g.q + 1)


@given(graph_and_labeling())
@settings(max_examples=30, deadline=None)
def test_verifier_is_pure(case):
    g, labels = case
    first = make_certificate(g, labels).verdict
    second = make_certificate(g, labels).verdict
    assert first == second
    if not first.ok:
        a, b = g.edges[first.witness]
        w = weights(g, labels)
        assert w[a] == w[b]


def test_certificate_round_trip():
    g = corona(cycle(3), null_graph(1))
    labels = [2, 5, 3, 6, 4, 1]
    cert = make_certificate(g, labels)
    assert verify_certificate(cert, g) is True
    doc = cert.to_doc()
    again = Certificate.from_doc(doc)
    assert again == cert
    assert verify_certificate(again, g) is True


def test_certificate_detects_tampering():
    g = corona(cycle(3), null_graph(1))
    cert = make_certificate(g, [2, 5, 3, 6, 4, 1])
    doc = cert.to_doc()
    doc["labels"] = list(doc["labels"])
    doc["labels"][0], doc["labels"][1] = doc["labels"][1], doc["labels"][0]
    assert verify_certificate(Certificate.from_doc(doc), g) is False


def test_certificate_with_a_repeated_label_fails_to_verify():
    # the weights are left as stored, so only the bijection check catches it
    g = corona(cycle(3), null_graph(1))
    cert = make_certificate(g, [2, 5, 3, 6, 4, 1])
    doc = dict(cert.to_doc(), labels=[2, 2, 3, 6, 4, 1])
    assert verify_certificate(Certificate.from_doc(doc), g) is False


def test_certificate_wrong_graph():
    g = corona(cycle(3), null_graph(1))
    cert = make_certificate(g, [2, 5, 3, 6, 4, 1])
    with pytest.raises(GraphMismatchError):
        verify_certificate(cert, cycle(3))


def test_color_count_bounds():
    g = friendship_corona(2, 1)
    labels = list(range(1, g.q + 1))
    assert 1 <= make_certificate(g, labels).color_count <= g.p
