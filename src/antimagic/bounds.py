"""Closed-form lower bounds and inequality audits for local antimagic
chromatic numbers of corona products.

Two families are covered: friendship coronas f_n.O_m (n triangles sharing a
hub, m pendants on every vertex) and fan coronas F_n.O_m (hub joined to a
path).  The lower-bound derivations rest on a handful of polynomial
inequalities in n, m and an auxiliary count r; each is exposed here as an
:class:`InequalityWitness` evaluated in exact integer arithmetic, so the
whole argument can be swept over parameter ranges.

Every witness carries the honest comparison (lhs vs rhs) computed from
triangular sums.  Where a simplified polynomial for the difference is
traditionally quoted, it is recorded in ``printed_form`` and checked against
``lhs - rhs``; a ``printed_matches=False`` flag means the quoted
simplification is off (the inequality itself may still hold).
"""

from __future__ import annotations

import csv
import io
import json
from itertools import islice
from typing import NamedTuple

from .graph import _is_int, _need_int, _triangular
from .graphs import REPORT_FAMILIES

FRIENDSHIP_LOWER = "friendship-lower"
FAN_LOWER = "fan-lower"
FN_O1_EXACT = "fn-o1-exact"
C3_EXACT = "c3-exact"
KN_K1_EXACT = "kn-k1-exact"


def _q_friendship(n: int, m: int) -> int:
    return m * (2 * n + 1) + 3 * n


def _q_fan(n: int, m: int) -> int:
    return m * (n + 1) + 2 * n - 1


# -- closed-form bounds ---------------------------------------------------------


def lb_friendship(n: int, m: int) -> int:
    """Lower bound on the local antimagic chromatic number of f_n.O_m.

    m(2n+1)+2 when m == 1 (and that value, 2n+3, is in fact exact), else
    m(2n+1)+3.  Needs ints n >= 2 and m >= 1.
    """
    _need_int(n, 2, "friendship corona needs n >= 2, got {}")
    _need_int(m, 1, "need m >= 1, got {}")
    base = m * (2 * n + 1)
    return base + 2 if m == 1 else base + 3


def lb_fan(n: int, m: int) -> int:
    """Lower bound m(n+1)+3 for F_n.O_m, for ints n >= 3 and m >= 1.

    n=2 is rejected: F_2.O_m coincides with C_3.O_m, whose exact value is
    available from known_exact_c3_corona.
    """
    _need_int(n, 2, "fan corona needs n >= 3, got {}")  # 2: redirected
    if n == 2:
        raise ValueError("F_2.O_m equals C_3.O_m; use known_exact_c3_corona"
                         "(m) for the exact value instead of this bound")
    _need_int(m, 1, "need m >= 1, got {}")
    return m * (n + 1) + 3


def known_exact_c3_corona(m: int) -> int:
    """Exact local antimagic chromatic number of C_3.O_m: 5 when m=1,
    otherwise 3m+3, for an int m >= 1."""
    _need_int(m, 1, "need m >= 1, got {}")
    return 5 if m == 1 else 3 * m + 3


def known_exact_kn_k1(n: int) -> int:
    """Exact local antimagic chromatic number of K_n.K_1 (int n >= 2): 2n-1."""
    _need_int(n, 2, "need n >= 2, got {}")
    return 2 * n - 1


# -- inequality witnesses --------------------------------------------------------


class InequalityWitness(NamedTuple):
    """One exact evaluation of an inequality (or identity) from the
    lower-bound derivations.

    ``relation`` is ">" or "="; ``holds`` states whether lhs relates to rhs
    accordingly.  ``r`` is the light-vertex count parameter where relevant.
    ``in_proof_scope`` records whether the side condition 2r <= n assumed by
    the chained estimates is met.  ``printed_form`` is the traditionally
    quoted simplification of lhs - rhs (None when there is none) and
    ``printed_matches`` whether it is exactly lhs - rhs.
    """

    name: str
    n: int
    m: int
    r: int | None
    lhs: int
    rhs: int
    relation: str
    holds: bool
    in_proof_scope: bool = True
    printed_form: int | None = None
    printed_matches: bool | None = None

    def to_doc(self) -> dict:
        return self._asdict()


# Witnesses are built with tuple.__new__ rather than through the named
# tuple's keyword constructor: the fan sweep makes 156,001 of them.
_new = tuple.__new__


def friendship_witnesses(n: int, m: int) -> list[InequalityWitness]:
    """The three inequalities behind lb_friendship at ints n >= 2, m >= 1.

    * friendship-hub-gap: twice the minimum hub weight exceeds 2q, so the
      hub's color is a fresh one above every pendant color.
    * friendship-inner-pair-sum: the minimum total of all triangle-vertex
      weights exceeds the maximum n(2q-1) available if every triangle pair
      stayed at or below q.
    * friendship-top-color-sum: n vertices sharing the top color q would
      need total weight nq, below the minimum sum of their incident labels —
      true precisely when m >= 2, which is why m=1 only yields the weaker
      bound.
    """
    _need_int(n, 2, "need n >= 2, got {}")
    _need_int(m, 1, "need m >= 1, got {}")
    q = _q_friendship(n, m)
    W = InequalityWitness
    lhs, rhs = 2 * _triangular(2 * n + m), 2 * q
    printed = 4 * n * n + m * m + m + 1
    hub = _new(W, ("friendship-hub-gap", n, m, None, lhs, rhs, ">",
                   lhs > rhs, True, printed, printed == lhs - rhs))
    inner_edges = n * (2 * m + 3)
    lhs, rhs = inner_edges * (inner_edges + 1), 2 * n * (2 * q - 1)
    printed = (4 * m * m * n * n + 4 * m * n * n - 2 * m * n
               - 3 * n * n + 5 * n)
    inner = _new(W, ("friendship-inner-pair-sum", n, m, None, lhs, rhs, ">",
                     lhs > rhs, True, printed, printed == lhs - rhs))
    lhs, rhs = _triangular(n * (m + 2)), n * q
    printed = (2 * n * n * (m + 1) + n + m * n * (m * n + 1) // 2
               - (3 * n * n + m * n * (2 * n + 1)))
    top = _new(W, ("friendship-top-color-sum", n, m, None, lhs, rhs, ">",
                   lhs > rhs, True, printed, printed == lhs - rhs))
    return [hub, inner, top]


def fan_witnesses(n: int, m: int) -> list[InequalityWitness]:
    """The inequalities and identities behind lb_fan at ints n >= 3, m >= 1.

    For r path vertices with weight above q, the remaining n-r "light"
    vertices are incident to (m+1)(n-r)+n-1 distinct edges:

    * fan-light-edge-count: that count equals (m+2)n-1-r(m+1) (identity).
    * fan-light-sum-exact: twice the minimum label sum on those edges vs
      2(n-r)q, evaluated for every r in 1..n-1.
    * fan-light-sum-chain: the r-free polynomial n(m^2*n+n-6) obtained by
      chaining the estimates under 2r <= n; four times the usual quoted
      bound, so it stays integral.  Zero exactly at (n,m)=(3,1).
    * fan-hub-gap: twice the minimum hub weight vs 2q.
    * fan-f3o1-refinement (only at n=3, m=1): the two light vertices of
      F_3.O_1 are incident to 6 edges, so their labels sum to at least 21,
      exceeding 2q=18 — closing the case the chained bound misses.
    """
    _need_int(n, 3, "need n >= 3, got {}")
    _need_int(m, 1, "need m >= 1, got {}")
    q = _q_fan(n, m)
    W = InequalityWitness
    lhs, rhs = 2 * _triangular(m + n), 2 * q
    printed = m * m - m + n * n - 3 * n + 1
    out = [_new(W, ("fan-hub-gap", n, m, None, lhs, rhs, ">", lhs > rhs,
                    True, printed, printed == lhs - rhs))]
    append = out.append
    chain = n * (m * m * n + n - 6)  # r-free, so the same for every r
    chain_holds = chain > 0
    m1, m2, mm2 = m + 1, m + 2, m * (m + 2)
    for r in range(1, n):
        in_scope = 2 * r <= n
        light = n - r
        light_edges = m1 * light + n - 1
        count = m2 * n - 1 - r * m1
        holds = count == light_edges
        # where the identity holds, both sides are one int object
        append(_new(W, ("fan-light-edge-count", n, m, r,
                        light_edges if holds else count, light_edges, "=",
                        holds, in_scope, None, None)))
        # twice the triangular number of light_edges
        lhs, rhs = light_edges * (light_edges + 1), 2 * light * q
        printed = light * (mm2 * light - 3 * m - n - r - 1) + n * n - n
        append(_new(W, ("fan-light-sum-exact", n, m, r, lhs, rhs, ">",
                        lhs > rhs, in_scope, printed, printed == lhs - rhs)))
        if in_scope:
            append(_new(W, ("fan-light-sum-chain", n, m, r, chain, 0, ">",
                            chain_holds, True, None, None)))
    if (n, m) == (3, 1):
        lhs, rhs = _triangular(6), 2 * q
        append(_new(W, ("fan-f3o1-refinement", 3, 1, None, lhs, rhs, ">",
                        lhs > rhs, True, None, None)))
    return out


def sweep_friendship_inequalities(n_values=range(2, 51),
                                  m_values=range(1, 51)
                                  ) -> list[InequalityWitness]:
    """friendship_witnesses over a parameter grid (defaults n<=50, m<=50)."""
    return [w for n in n_values for m in m_values
            for w in friendship_witnesses(n, m)]


def sweep_fan_inequalities(n_values=range(3, 51), m_values=range(1, 51)
                           ) -> list[InequalityWitness]:
    """fan_witnesses over a parameter grid (defaults n<=50, m<=50)."""
    return [w for n in n_values for m in m_values
            for w in fan_witnesses(n, m)]


_CSV_COLUMNS = ("name", "n", "m", "r", "lhs", "rhs", "holds", "relation",
                "in_proof_scope", "printed_form", "printed_matches")


class _CsvForm(dict):
    """A str field's text in a CSV row, computed once per distinct string
    by ``csv`` itself (QUOTE_MINIMAL).  The string is written with a second,
    empty field after it, because ``csv`` writes a lone empty field as
    ``""`` but an empty field inside a row as nothing."""

    def __missing__(self, s):
        buf = io.StringIO()
        csv.writer(buf).writerow((s, ""))
        self[s] = form = buf.getvalue()[:-3]  # drop the trailing ",\r\n"
        return form


_CSV_ROWS_PER_WRITE = 4096


def witnesses_to_csv(witnesses, fp) -> None:
    """Write witnesses to an open text file as CSV, byte for byte what
    ``csv.writer`` writes for them.

    The header row names the columns in ``_CSV_COLUMNS`` order; rows end in
    ``\r\n`` and None is a blank cell.  Each row is one f-string over the
    witness's fields, with ``name`` and ``relation`` quoted as ``csv``
    quotes them (see ``_CsvForm``); rows are joined and written 4,096 at a
    time, never as one string for the whole file.
    """
    form = _CsvForm()
    fp.write(",".join(_CSV_COLUMNS) + "\r\n")
    it = iter(witnesses)
    while chunk := list(islice(it, _CSV_ROWS_PER_WRITE)):
        fp.write("".join([
            f"{form[name]},{n},{m},{'' if r is None else r},{lhs},{rhs},"
            f"{holds},{form[relation]},{scope},"
            f"{'' if printed is None else printed},"
            f"{'' if matches is None else matches}\r\n"
            for name, n, m, r, lhs, rhs, relation, holds, scope, printed,
            matches in chunk]))


def witnesses_to_json(witnesses) -> str:
    return json.dumps([w.to_doc() for w in witnesses], indent=2)


# -- aggregated reports ----------------------------------------------------------


class _BoundFields(NamedTuple):
    family: str
    n: int
    m: int
    lower: int
    upper: int | None
    exact: int | None
    provenance: str
    lemma_lower: int | None = None
    lemma_provenance: str | None = None

    def to_doc(self) -> dict:
        return self._asdict()


class BoundReport(_BoundFields):
    """Best known lower/upper/exact values for one parameterized family.

    ``provenance`` explains where lower/exact come from; the raw closed-form
    bound is kept separately in ``lemma_lower`` even when a sharper exact
    value supersedes it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.exact is not None:
            if self.lower > self.exact:
                raise ValueError("lower bound exceeds exact value")
            if self.upper is not None and self.exact > self.upper:
                raise ValueError("exact value exceeds upper bound")
        elif self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        return self


def bound_report(family: str, n: int, m: int) -> BoundReport:
    """Aggregate the known bounds for one family instance.

    c3-corona has the int n = 3 and kn-k1 the int m = 1 (3.0 or 1.0 raises
    ValueError); n and m otherwise follow the family's bound function.
    """
    if family == "friendship-corona":
        lemma = lb_friendship(n, m)
        exact = lemma if m == 1 else None  # the lemma's 2n+3 is exact at m=1
        provenance = FRIENDSHIP_LOWER if exact is None else FN_O1_EXACT
        return BoundReport(family, n, m, lower=lemma, upper=exact,
                           exact=exact, provenance=provenance,
                           lemma_lower=lemma,
                           lemma_provenance=FRIENDSHIP_LOWER)
    if family == "fan-corona":
        lemma = lb_fan(n, m)  # n=2 redirect happens in lb_fan
        return BoundReport(family, n, m, lower=lemma, upper=None, exact=None,
                           provenance=FAN_LOWER, lemma_lower=lemma,
                           lemma_provenance=FAN_LOWER)
    if family == "c3-corona":
        if not (_is_int(n) and n == 3):
            raise ValueError(f"c3-corona has n = 3, got n = {n!r}")
        exact = known_exact_c3_corona(m)
        return BoundReport(family, n, m, lower=exact, upper=exact,
                           exact=exact, provenance=C3_EXACT)
    if family == "kn-k1":
        if not (_is_int(m) and m == 1):
            raise ValueError(f"kn-k1 has m = 1, got m = {m!r}")
        exact = known_exact_kn_k1(n)
        return BoundReport(family, n, m, lower=exact, upper=exact,
                           exact=exact, provenance=KN_K1_EXACT)
    raise ValueError(f"unknown family {family!r}; "
                     f"expected one of {', '.join(REPORT_FAMILIES)}")
