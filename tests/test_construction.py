"""Closed-form labelings: matrices, column sums, assembled reports."""

import hashlib
import json

import pytest

from antimagic import construction
from antimagic.construction import (ConstructionError, chi_la_friendship_o1,
                                    construct, construct_even, construct_odd,
                                    construct_small, even_matrices,
                                    odd_matrices)


def _formula_columns(rows):
    """The even case's rows without their n-th, special column."""
    return [row[:-1] for row in rows]


def _column_sums(rows):
    return {sum(col) for col in zip(*rows)}


def _values(rows):
    return [value for row in rows for value in row]


def test_odd_entry_values_n3():
    mu, mv = odd_matrices(3)
    assert mu[0][0] == 13
    assert mu[0][1] == 15
    assert mu[2][0] == 9
    assert mv[1][0] == 5
    assert mv[1][1] == 4
    assert mv[2][0] == 1


def test_odd_matrices_n3():
    assert odd_matrices(3) == ([[13, 15, 14], [11, 10, 12], [9, 8, 7]],
                               [[9, 8, 7], [5, 4, 6], [1, 3, 2]])


def test_odd_column_sums():
    # each column sum is the weight of that triangle's inner vertex
    for n in (3, 5, 9, 99):
        mu, mv = odd_matrices(n)
        closed = construct_odd(n).closed_forms
        assert _column_sums(mu) == {closed["w_inner_u"]}
        assert _column_sums(mv) == {closed["w_inner_v"]}
    closed = construct_odd(3).closed_forms
    assert (closed["w_inner_u"], closed["w_inner_v"]) == (33, 15)


def test_odd_row_ranges():
    for n in (3, 7, 21):
        mu, mv = odd_matrices(n)
        assert sorted(mu[0]) == list(range(4 * n + 1, 5 * n + 1))
        assert sorted(mu[1]) == list(range(3 * n + 1, 4 * n + 1))
        assert sorted(mu[2]) == list(range(2 * n + 1, 3 * n + 1))
        # first v-row repeats the third u-row (shared triangle edges)
        assert mv[0] == mu[2] and mv[0] is not mu[2]
        assert sorted(mv[1]) == list(range(n + 1, 2 * n + 1))
        assert sorted(mv[2]) == list(range(1, n + 1))
        everything = _values(mu) + _values(mv)[n:] + [5 * n + 1]
        assert sorted(everything) == list(range(1, 5 * n + 2))


def test_even_entry_values_n6():
    mu, mv = even_matrices(6)
    assert mu[0] == [27, 30, 28, 31, 29, 14]
    closed = construct_even(6).closed_forms
    assert _column_sums(_formula_columns(mu)) == {71} == {closed["w_inner_u"]}
    assert _column_sums(_formula_columns(mv)) == {31} == {closed["w_inner_v"]}
    assert mv[0] == mu[2] and mv[0] is not mu[2]


def test_even_row_ranges():
    for n in (6, 8, 30):
        mu, mv = even_matrices(n)
        # the n-th column, u rows then v rows, and the hub pendant
        assert [row[-1] for row in mu + mv] == [2 * n + 2, 2 * n, 1,
                                                1, 2 * n + 1, 2 * n + 3]
        everything = _values(mu) + _values(mv)[n:] + [3 * n + 3]
        assert sorted(everything) == list(range(1, 5 * n + 2))
        mu, mv = _formula_columns(mu), _formula_columns(mv)
        assert sorted(mu[0]) == list(range(4 * n + 3, 5 * n + 2))
        assert sorted(mu[1]) == list(range(3 * n + 4, 4 * n + 3))
        assert sorted(mu[2]) == list(range(2 * n + 4, 3 * n + 3))
        assert sorted(mv[1]) == list(range(n + 1, 2 * n))
        assert sorted(mv[2]) == list(range(2, n + 1))


def test_parity_guards():
    with pytest.raises(ValueError):
        odd_matrices(4)
    with pytest.raises(ValueError):
        even_matrices(7)
    with pytest.raises(ValueError):
        even_matrices(4)  # even but below the case's range


@pytest.mark.parametrize("matrices, n, message", [
    (odd_matrices, 4, "odd-case formulas need odd n >= 3, got 4"),
    (odd_matrices, 1, "odd-case formulas need odd n >= 3, got 1"),
    (even_matrices, 7, "even-case formulas need even n >= 6, got 7"),
    (even_matrices, 4, "even-case formulas need even n >= 6, got 4"),
], ids=["odd-4", "odd-1", "even-7", "even-4"])
def test_entry_errors_name_the_first_bad_argument(matrices, n, message):
    with pytest.raises(ValueError) as exc:
        matrices(n)
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
        (mu, mv), cols = odd_matrices(n), n
    else:
        (mu, mv), cols = even_matrices(n), n - 1
    x1 = 2 * n + 1  # the hub's pendant; vertex b's is x1 + b

    def label(a, b):
        return labels[g.edge_index(a, b)]

    for i in range(1, cols + 1):
        u, v = i, n + i
        assert label(u, x1 + u) == mu[0][i - 1]
        assert label(0, u) == mu[1][i - 1]
        assert label(u, v) == mu[2][i - 1] == mv[0][i - 1]
        assert label(0, v) == mv[1][i - 1]
        assert label(v, x1 + v) == mv[2][i - 1]
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


def test_construct_small():
    for n, u_sum, v_sum in ((2, 20, 11), (4, 46, 21)):
        mu, mv = construction._SMALL[n][:2]
        assert _column_sums(mu) == {u_sum} and _column_sums(mv) == {v_sum}
        assert mv[0] == mu[2]  # the shared triangle edges
    rep2 = construct_small(2)
    assert rep2.certificate.color_count == 7
    assert rep2.colors == frozenset({5, 7, 9, 10, 11, 20, 28})
    rep4 = construct_small(4)
    assert rep4.certificate.color_count == 11
    assert rep4.colors == frozenset({5, 6, 7, 9, 10, 16, 17, 18, 21, 46, 85})
    assert rep2.closed_forms == rep4.closed_forms == {}
    with pytest.raises(ValueError):
        construct_small(3)


def test_small_labeling_check_fires(monkeypatch):
    # swap the two spokes of the first triangle: u_1 and v_1 leave the
    # column sums, and the labeling gets 9 colours instead of 7
    mu, mv, hub_pendant = construction._SMALL[2]
    mu, mv = [row.copy() for row in mu], [row.copy() for row in mv]
    mu[1][0], mv[1][0] = mv[1][0], mu[1][0]
    monkeypatch.setitem(construction._SMALL, 2, (mu, mv, hub_pendant))
    with pytest.raises(ConstructionError, match="small n=2 labeling"):
        construct(2)


def test_construct_dispatcher():
    assert construct(2).case == "small"
    assert construct(4).case == "small"
    assert construct(5).case == "odd"
    assert construct(6).case == "even"
    with pytest.raises(ValueError):
        construct(1)


def test_colors_are_read_off_the_certificate():
    for n in range(2, 41):
        report = construct(n)
        assert report.colors == frozenset(report.certificate.weights)
        assert len(report.colors) == 2 * n + 3


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


@pytest.mark.parametrize("name, build, n, side, row, what", [
    ("odd_matrices", construct_odd, 5, 1, 2, "odd n=5 inner v weights"),
    ("even_matrices", construct_even, 6, 0, 0, "even n=6 inner u weights"),
], ids=["odd", "even"])
def test_weight_checks_fire(monkeypatch, name, build, n, side, row, what):
    # swap the first two pendant labels of one side: the pendant weights
    # keep their set, but two inner vertices leave the column sum.  The
    # colour count breaks too, so only the group check names the group.
    original = getattr(construction, name)

    def broken(m):
        matrices = original(m)
        entries = matrices[side][row]
        entries[0], entries[1] = entries[1], entries[0]
        return matrices

    monkeypatch.setattr(construction, name, broken)
    with pytest.raises(ConstructionError, match=what):
        build(n)
