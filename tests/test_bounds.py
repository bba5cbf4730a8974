"""Lower-bound formulas, inequality witnesses, sweeps, and bound reports."""

import csv
import hashlib
import io
import json
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import bounds
from antimagic.bounds import (BoundReport, InequalityWitness, bound_report,
                              fan_witnesses, friendship_witnesses,
                              known_exact_c3_corona,
                              known_exact_kn_k1, lb_fan, lb_friendship,
                              sweep_fan_inequalities,
                              sweep_friendship_inequalities, witnesses_to_csv,
                              witnesses_to_json)


def _by_name(witnesses, name, r=None):
    out = [w for w in witnesses if w.name == name and (r is None or w.r == r)]
    assert out, f"no witness {name} (r={r})"
    return out[0] if len(out) == 1 else out


# -- closed-form bounds --------------------------------------------------------

def test_lb_friendship_values():
    assert lb_friendship(2, 1) == 7
    assert lb_friendship(3, 2) == 17
    assert lb_friendship(6, 1) == 15
    # m = 1 pins the +2 constant; anything larger gets +3
    assert lb_friendship(4, 1) == 11
    assert lb_friendship(4, 2) == 21
    with pytest.raises(ValueError):
        lb_friendship(1, 1)
    with pytest.raises(ValueError):
        lb_friendship(3, 0)


def test_lb_fan_values():
    assert lb_fan(3, 1) == 7
    assert lb_fan(4, 2) == 13
    with pytest.raises(ValueError):
        lb_fan(3, 0)


def test_lb_fan_redirects_n2():
    with pytest.raises(ValueError) as err:
        lb_fan(2, 1)
    assert "known_exact_c3_corona" in str(err.value)


def test_known_exact_values():
    assert known_exact_c3_corona(1) == 5
    assert known_exact_c3_corona(2) == 9
    assert known_exact_c3_corona(3) == 12
    assert known_exact_kn_k1(2) == 3
    assert known_exact_kn_k1(3) == 5
    assert known_exact_kn_k1(4) == 7
    with pytest.raises(ValueError):
        known_exact_c3_corona(0)
    with pytest.raises(ValueError):
        known_exact_kn_k1(1)


# -- individual witnesses ------------------------------------------------------

def test_friendship_hub_gap_at_2_1():
    w = _by_name(friendship_witnesses(2, 1), "friendship-hub-gap")
    assert (w.lhs, w.rhs) == (30, 22)
    assert w.holds
    # simplified difference printed alongside the derivation is 19, but the
    # actual gap is 8; the witness reports the discrepancy instead of hiding it
    assert w.printed_form == 19
    assert w.printed_matches is False


def test_friendship_inner_pair_sum_printed_matches():
    w = _by_name(friendship_witnesses(5, 3), "friendship-inner-pair-sum")
    assert w.printed_form == 1120
    assert w.printed_matches is True
    assert w.lhs - w.rhs == 1120


def test_friendship_top_color_sum_boundary():
    w = _by_name(friendship_witnesses(2, 1), "friendship-top-color-sum")
    assert not w.holds and w.lhs - w.rhs == -1 and w.printed_matches
    for n in range(2, 9):
        for m in range(1, 6):
            w = _by_name(friendship_witnesses(n, m), "friendship-top-color-sum")
            assert w.holds == (m >= 2), (n, m)


@given(st.integers(2, 60), st.integers(1, 60))
def test_friendship_printed_deltas(n, m):
    ws = friendship_witnesses(n, m)
    hub = _by_name(ws, "friendship-hub-gap")
    assert hub.lhs - hub.rhs == 4 * n * n + m * m - m - 4 * n
    assert hub.printed_form == 4 * n * n + m * m + m + 1
    assert hub.holds  # gap inequality never fails on the bound's domain
    pair = _by_name(ws, "friendship-inner-pair-sum")
    assert pair.printed_matches and pair.holds
    top = _by_name(ws, "friendship-top-color-sum")
    assert top.printed_matches
    assert top.holds == (m >= 2)


def test_fan_hub_gap_off_by_one():
    for n in range(3, 12):
        for m in range(1, 6):
            w = _by_name(fan_witnesses(n, m), "fan-hub-gap")
            true_diff = m * m - m + n * n - 3 * n + 2
            assert w.lhs - w.rhs == true_diff
            assert w.printed_form == true_diff - 1
            assert w.printed_matches is False
            assert w.holds


def test_fan_light_sum_exact_always_holds():
    for n in range(3, 12):
        for m in range(1, 6):
            for w in fan_witnesses(n, m):
                if w.name == "fan-light-sum-exact":
                    assert w.holds, (n, m, w.r)
                    r = w.r
                    assert w.lhs - w.rhs == w.printed_form + 2 * (n - r)


def test_fan_chain_witness_fails_only_at_3_1():
    w = _by_name(fan_witnesses(3, 1), "fan-light-sum-chain", r=1)
    assert (w.lhs, w.rhs, w.holds) == (0, 0, False)
    for n in range(3, 12):
        for m in range(1, 6):
            for w in fan_witnesses(n, m):
                if w.name == "fan-light-sum-chain":
                    assert w.holds == ((n, m) != (3, 1)), (n, m, w.r)


def test_fan_edge_count_identity():
    w = _by_name(fan_witnesses(4, 1), "fan-light-edge-count", r=2)
    assert w.lhs == w.rhs == 7
    assert w.relation == "=" and w.holds


def test_fan_refinement_only_at_3_1():
    w = _by_name(fan_witnesses(3, 1), "fan-f3o1-refinement")
    assert (w.lhs, w.rhs) == (21, 18) and w.holds
    assert not [w for w in fan_witnesses(4, 1) if w.name == "fan-f3o1-refinement"]
    assert not [w for w in fan_witnesses(3, 2) if w.name == "fan-f3o1-refinement"]


def test_fan_proof_scope_flag():
    for n in range(3, 10):
        for w in fan_witnesses(n, 1):
            if w.r is not None:
                assert w.in_proof_scope == (2 * w.r <= n), (n, w.name, w.r)
                if w.name == "fan-light-sum-chain":
                    assert w.in_proof_scope  # chain rows only emitted in scope


# -- sweeps and exporters ------------------------------------------------------

def test_sweep_shapes():
    ws = sweep_friendship_inequalities(range(2, 5), range(1, 3))
    assert len(ws) == 3 * 2 * 3
    names = {w.name for w in ws}
    assert names == {"friendship-hub-gap", "friendship-inner-pair-sum",
                     "friendship-top-color-sum"}
    fan = sweep_fan_inequalities(range(3, 5), range(1, 2))
    assert any(w.name == "fan-f3o1-refinement" for w in fan)
    failing = [(w.n, w.m, w.name) for w in fan if not w.holds]
    assert failing == [(3, 1, "fan-light-sum-chain")]


def test_csv_export_shape():
    buf = io.StringIO()
    witnesses_to_csv(friendship_witnesses(2, 1), buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 3
    byname = {r["name"]: r for r in rows}
    hub = byname["friendship-hub-gap"]
    assert hub["lhs"] == "30" and hub["rhs"] == "22"
    assert hub["holds"] == "True" and hub["printed_matches"] == "False"
    assert hub["r"] == ""


def _reference_csv(witnesses) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(bounds._CSV_COLUMNS)
    writer.writerows(map(attrgetter(*bounds._CSV_COLUMNS), witnesses))
    return buf.getvalue()


# names csv has to quote, or must leave alone, alongside arbitrary text
_NAMES = st.one_of(st.sampled_from(["", " ", " lead", "a,b", 'say "hi"', '"',
                                    "cr\rlf", "line\nbreak", "\r\n",
                                    "fan-hub-gap"]),
                   st.text(max_size=8))
_INTS = st.integers(-10**30, 10**30)
_WITNESSES = st.builds(
    InequalityWitness, name=_NAMES, n=_INTS, m=_INTS,
    r=st.none() | _INTS, lhs=_INTS, rhs=_INTS,
    relation=st.sampled_from([">", "=", "", ","]), holds=st.booleans(),
    in_proof_scope=st.booleans(), printed_form=st.none() | _INTS,
    printed_matches=st.none() | st.booleans())


@given(st.lists(_WITNESSES, max_size=12), st.integers(1, 5))
# csv writes a lone empty field as "", but an empty name inside a row as
# nothing
@example([InequalityWitness("", 2, 1, None, 1, 0, ">", True)], 1)
@settings(max_examples=150, deadline=None)
def test_csv_matches_the_csv_module(witnesses, rows_per_write):
    # small chunks, so that rows cross chunk boundaries
    old = bounds._CSV_ROWS_PER_WRITE
    bounds._CSV_ROWS_PER_WRITE = rows_per_write
    try:
        buf = io.StringIO(newline="")
        witnesses_to_csv(iter(witnesses), buf)
    finally:
        bounds._CSV_ROWS_PER_WRITE = old
    assert buf.getvalue() == _reference_csv(witnesses)


def test_json_export_shape():
    docs = json.loads(witnesses_to_json(fan_witnesses(3, 1)))
    assert isinstance(docs, list)
    chain = [d for d in docs if d["name"] == "fan-light-sum-chain"]
    assert chain and chain[0]["holds"] is False and chain[0]["r"] == 1


# sha256 of the exporters' output on the default grids, recorded before the
# witnesses became named tuples and the CSV rows went through one getter
SWEEP_CSV_SHA256 = {
    "friendship": (
        sweep_friendship_inequalities, 7350,
        "96a91e0dde12462317577617e3da8b348f9eadb0845659ae9654c2459332bb2a"),
    "fan": (
        sweep_fan_inequalities, 156001,
        "094bbcadab0d80b2516bf47dcac9f1fa8c6eadb62a52c23617b6710f4b0a8a74"),
}
FAN_3_1_JSON_SHA256 = \
    "73a188ec6be2bf9ce127956853fb81fb838ae7a32c71b8f94b4d696b341d72fc"


@pytest.mark.parametrize("target", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv_is_byte_identical(target):
    sweep, rows, digest = SWEEP_CSV_SHA256[target]
    ws = sweep()
    assert len(ws) == rows
    buf = io.StringIO(newline="")
    witnesses_to_csv(ws, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_json_export_is_byte_identical():
    text = witnesses_to_json(fan_witnesses(3, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == FAN_3_1_JSON_SHA256


def test_witness_doc_keeps_field_order():
    w = fan_witnesses(3, 1)[1]
    assert list(w.to_doc()) == ["name", "n", "m", "r", "lhs", "rhs",
                                "relation", "holds", "in_proof_scope",
                                "printed_form", "printed_matches"]


def test_witness_is_immutable_and_hashable():
    w = friendship_witnesses(2, 1)[0]
    with pytest.raises(AttributeError):
        w.lhs = 0
    twin = InequalityWitness(**w.to_doc())
    assert twin == w and hash(twin) == hash(w)
    assert len(set(friendship_witnesses(2, 1) * 2)) == 3


# -- reports -------------------------------------------------------------------

def test_bound_report_friendship_exact_case():
    rep = bound_report("friendship-corona", 3, 1)
    assert (rep.lower, rep.exact, rep.upper) == (9, 9, 9)
    assert rep.provenance == "fn-o1-exact"
    assert rep.lemma_lower == 9
    assert rep.lemma_provenance == "friendship-lower"


def test_bound_report_friendship_open_case():
    rep = bound_report("friendship-corona", 3, 2)
    assert rep.lower == 17 and rep.exact is None and rep.upper is None
    assert rep.provenance == "friendship-lower"


def test_bound_report_fan():
    rep = bound_report("fan-corona", 3, 1)
    assert rep.lower == 7 and rep.exact is None and rep.upper is None


def test_bound_report_c3_and_kn():
    rep = bound_report("c3-corona", 3, 2)
    assert rep.exact == 9 and rep.lower == 9 and rep.upper == 9
    assert rep.provenance == "c3-exact"
    rep = bound_report("kn-k1", 4, 1)
    assert rep.exact == 7 and rep.provenance == "kn-k1-exact"


def test_bound_report_rejects_bad_input():
    with pytest.raises(ValueError):
        bound_report("moebius-kantor", 3, 1)
    with pytest.raises(ValueError, match="kn-k1 has m = 1, got m = 5"):
        bound_report("kn-k1", 4, 5)
    with pytest.raises(ValueError, match="c3-corona has n = 3, got n = 7"):
        bound_report("c3-corona", 7, 2)
    with pytest.raises(ValueError):
        BoundReport(family="fan-corona", n=3, m=1, lower=10, upper=None,
                    exact=7, provenance=bounds.FAN_LOWER)
    with pytest.raises(ValueError):
        BoundReport(family="fan-corona", n=3, m=1, lower=5, upper=6,
                    exact=7, provenance=bounds.FAN_LOWER)


def test_bound_report_to_doc_round_trip():
    rep = bound_report("friendship-corona", 5, 1)
    doc = rep.to_doc()
    assert doc["family"] == "friendship-corona"
    assert doc["exact"] == 13
    json.dumps(doc)  # stays JSON-serializable
