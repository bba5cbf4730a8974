"""Closed-form labelings: matrix entries, column sums, assembled reports."""

import hashlib
import json

import pytest

from antimagic import construction
from antimagic.construction import (ConstructionError, chi_la_friendship_o1,
                                    construct, construct_even, construct_odd,
                                    construct_small, even_u_column_sum,
                                    even_u_entry, even_v_column_sum,
                                    even_v_entry, odd_u_column_sum,
                                    odd_u_entry, odd_v_column_sum,
                                    odd_v_entry)


def _rows(entry, cols, n):
    """The three matrix rows entry(k, i, n), i = 1..cols."""
    return tuple(tuple(entry(k, i, n) for i in range(1, cols + 1))
                 for k in (1, 2, 3))


def _column_sums(rows):
    return {sum(col) for col in zip(*rows)}


def _values(rows):
    return [value for row in rows for value in row]


def test_odd_entry_values_n3():
    assert odd_u_entry(1, 1, 3) == 13
    assert odd_u_entry(1, 2, 3) == 15
    assert odd_u_entry(3, 1, 3) == 9
    assert odd_v_entry(2, 1, 3) == 5
    assert odd_v_entry(2, 2, 3) == 4
    assert odd_v_entry(3, 1, 3) == 1


def test_odd_matrices_n3():
    assert _rows(odd_u_entry, 3, 3) == ((13, 15, 14), (11, 10, 12), (9, 8, 7))
    assert _rows(odd_v_entry, 3, 3) == ((9, 8, 7), (5, 4, 6), (1, 3, 2))


def test_odd_column_sums():
    for n in (3, 5, 9, 99):
        assert _column_sums(_rows(odd_u_entry, n, n)) == {odd_u_column_sum(n)}
        assert _column_sums(_rows(odd_v_entry, n, n)) == {odd_v_column_sum(n)}
    assert odd_u_column_sum(3) == 33
    assert odd_v_column_sum(3) == 15


def test_odd_row_ranges():
    for n in (3, 7, 21):
        mu, mv = _rows(odd_u_entry, n, n), _rows(odd_v_entry, n, n)
        assert sorted(mu[0]) == list(range(4 * n + 1, 5 * n + 1))
        assert sorted(mu[1]) == list(range(3 * n + 1, 4 * n + 1))
        assert sorted(mu[2]) == list(range(2 * n + 1, 3 * n + 1))
        # first v-row repeats the third u-row (shared triangle edges)
        assert mv[0] == mu[2]
        assert sorted(mv[1]) == list(range(n + 1, 2 * n + 1))
        assert sorted(mv[2]) == list(range(1, n + 1))
        everything = _values(mu) + _values(mv)[n:] + [5 * n + 1]
        assert sorted(everything) == list(range(1, 5 * n + 2))


def test_even_entry_values_n6():
    mu, mv = _rows(even_u_entry, 5, 6), _rows(even_v_entry, 5, 6)
    assert mu[0] == (27, 30, 28, 31, 29)
    assert _column_sums(mu) == {71} and even_u_column_sum(6) == 71
    assert _column_sums(mv) == {31} and even_v_column_sum(6) == 31
    assert mv[0] == mu[2]


def test_even_row_ranges():
    for n in (6, 8, 30):
        mu, mv = _rows(even_u_entry, n - 1, n), _rows(even_v_entry, n - 1, n)
        assert sorted(mu[0]) == list(range(4 * n + 3, 5 * n + 2))
        assert sorted(mu[1]) == list(range(3 * n + 4, 4 * n + 3))
        assert sorted(mu[2]) == list(range(2 * n + 4, 3 * n + 3))
        assert sorted(mv[1]) == list(range(n + 1, 2 * n))
        assert sorted(mv[2]) == list(range(2, n + 1))
        specials = [3 * n + 3, 1, 2 * n + 2, 2 * n, 2 * n + 3, 2 * n + 1]
        everything = _values(mu) + _values(mv)[n - 1:] + specials
        assert sorted(everything) == list(range(1, 5 * n + 2))


def test_parity_guards():
    with pytest.raises(ValueError):
        odd_u_entry(1, 1, 4)
    with pytest.raises(ValueError):
        even_u_entry(1, 1, 7)
    with pytest.raises(ValueError):
        even_u_entry(1, 1, 4)  # even but below the case's range
    with pytest.raises(ValueError):
        odd_u_entry(4, 1, 3)
    with pytest.raises(ValueError):
        odd_u_entry(1, 0, 3)


@pytest.mark.parametrize("entry, k, i, n, message", [
    (odd_u_entry, 4, 0, 4, "odd-case formulas need odd n >= 3, got 4"),
    (odd_v_entry, 1, 1, 1, "odd-case formulas need odd n >= 3, got 1"),
    (odd_u_entry, 0, 0, 3, "row index k must be 1, 2 or 3, got 0"),
    (odd_v_entry, 3, 4, 3, "column index i must be in 1..3, got 4"),
    (even_u_entry, 1, 1, 7, "even-case formulas need even n >= 6, got 7"),
    (even_v_entry, 1, 1, 4, "even-case formulas need even n >= 6, got 4"),
    (even_u_entry, 4, 9, 6, "row index k must be 1, 2 or 3, got 4"),
    (even_v_entry, 2, 6, 6, "column index i must be in 1..5, got 6"),
    (even_u_entry, 1, 0, 8, "column index i must be in 1..7, got 0"),
])
def test_entry_errors_name_the_first_bad_argument(entry, k, i, n, message):
    # n is checked before the row, the row before the column
    with pytest.raises(ValueError) as exc:
        entry(k, i, n)
    assert str(exc.value) == message


def test_construct_odd_n3_matches_reference_colors():
    report = construct_odd(3)
    assert report.colors == (frozenset(range(1, 4)) | frozenset(range(13, 17))
                             | frozenset({33, 64}))
    assert report.certificate.color_count == 9
    assert report.closed_forms["w_hub"] == 64


def test_construct_odd_spot_checks():
    for n in (3, 5, 99):
        report = construct_odd(n)
        cert = report.certificate
        assert sorted(cert.labels) == list(range(1, 5 * n + 2))
        assert cert.verdict.ok
        assert cert.color_count == 2 * n + 3
        assert report.closed_forms["w_hub"] == (n + 1) * (5 * n + 1)
        q = report.graph.q
        hub_weight = report.closed_forms["w_hub"]
        assert hub_weight > q
        pendant_weights = [cert.weights[v] for v in range(report.graph.p)
                           if report.graph.degree(v) == 1]
        assert all(w <= q for w in pendant_weights)
        assert len(set(pendant_weights)) == len(pendant_weights)


def test_construct_even_n6_reference():
    report = construct_even(6)
    assert len(report.colors) == 15
    assert {21, 71, 211} <= report.colors
    # True induced weights, the last triangle's pendants (14, 15) included.
    truth = (frozenset(range(2, 7)) | frozenset(range(27, 32))
             | frozenset({14, 15, 21, 71, 211}))
    assert report.colors == truth
    assert report.closed_forms["w_hub"] == 211
    assert report.closed_forms["w_u_last"] == 27
    assert report.closed_forms["w_v_last"] == 29


def test_construct_even_spot_checks():
    for n in (6, 8, 200):
        report = construct_even(n)
        cert = report.certificate
        assert sorted(cert.labels) == list(range(1, 5 * n + 2))
        assert cert.verdict.ok
        assert cert.color_count == 2 * n + 3
        assert report.closed_forms["w_hub"] == 5 * n * n + 5 * n + 1
        un = report.closed_forms["w_u_last"]
        vn = report.closed_forms["w_v_last"]
        assert un == 4 * n + 3 and vn == 4 * n + 5 and un != vn
        assert 4 * n + 3 <= un <= 5 * n + 1 and 4 * n + 3 <= vn <= 5 * n + 1


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 12])
def test_labels_sit_on_their_entries_edges(n):
    # the reference placement: each matrix entry and special label put on
    # the edge that edge_index names for its pair of vertices
    report = construct(n)
    g, labels = report.graph, report.certificate.labels
    if n % 2:
        u_entry, v_entry, cols = odd_u_entry, odd_v_entry, n
    else:
        u_entry, v_entry, cols = even_u_entry, even_v_entry, n - 1
    x1 = 2 * n + 1  # the hub's pendant; vertex b's is x1 + b

    def label(a, b):
        return labels[g.edge_index(a, b)]

    for i in range(1, cols + 1):
        u, v = i, n + i
        assert label(u, x1 + u) == u_entry(1, i, n)
        assert label(0, u) == u_entry(2, i, n)
        assert label(u, v) == u_entry(3, i, n) == v_entry(1, i, n)
        assert label(0, v) == v_entry(2, i, n)
        assert label(v, x1 + v) == v_entry(3, i, n)
    if n % 2:
        assert label(0, x1) == 5 * n + 1
    else:
        un, vn = n, 2 * n
        assert label(0, x1) == 3 * n + 3
        assert label(un, vn) == 1
        assert label(un, x1 + un) == 2 * n + 2
        assert label(0, un) == 2 * n
        assert label(vn, x1 + vn) == 2 * n + 3
        assert label(0, vn) == 2 * n + 1


def test_construct_even_rejects_small_and_odd():
    for bad in (2, 4, 7):
        with pytest.raises(ValueError):
            construct_even(bad)
    with pytest.raises(ValueError):
        construct_odd(2)


def test_construct_small_fixtures():
    rep2 = construct_small(2)
    assert rep2.certificate.color_count == 7
    assert rep2.colors == frozenset({5, 7, 9, 10, 11, 20, 28})
    rep4 = construct_small(4)
    assert rep4.certificate.color_count == 11
    assert rep4.colors == frozenset({5, 6, 7, 9, 10, 16, 17, 18, 21, 46, 85})
    with pytest.raises(ValueError):
        construct_small(3)


def test_construct_dispatcher():
    assert construct(2).case == "small"
    assert construct(4).case == "small"
    assert construct(5).case == "odd"
    assert construct(6).case == "even"
    with pytest.raises(ValueError):
        construct(1)


def test_chi_la_closed_form():
    assert chi_la_friendship_o1(2) == 7
    assert chi_la_friendship_o1(3) == 9
    assert chi_la_friendship_o1(6) == 15
    with pytest.raises(ValueError):
        chi_la_friendship_o1(1)


def test_constructions_match_golden_digest():
    # sha256 of the labels and closed forms for n = 2..200: any change to
    # what construct(n) returns changes it.
    doc = []
    for n in range(2, 201):
        report = construct(n)
        doc.append([n, list(report.certificate.labels), report.closed_forms])
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "32b6d7161a6ed9632e5f730b6475bad95bccf61ff507c4542ee4e69802920e8c")


@pytest.mark.parametrize("name, build, n, what", [
    ("odd_v_column_sum", construct_odd, 5, "odd n=5 inner v weights"),
    ("even_u_column_sum", construct_even, 6, "even n=6 inner u weights"),
], ids=["odd", "even"])
def test_weight_checks_fire(monkeypatch, name, build, n, what):
    original = getattr(construction, name)
    monkeypatch.setattr(construction, name, lambda m: original(m) + 1)
    with pytest.raises(ConstructionError, match=what):
        build(n)
