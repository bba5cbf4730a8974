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
import json
from operator import attrgetter
from typing import NamedTuple

from .graphs import REPORT_FAMILIES, _triangular

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
    m(2n+1)+3.
    """
    if n < 2:
        raise ValueError(f"friendship corona needs n >= 2, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    base = m * (2 * n + 1)
    return base + 2 if m == 1 else base + 3


def lb_fan(n: int, m: int) -> int:
    """Lower bound m(n+1)+3 for F_n.O_m, n >= 3.

    n=2 is rejected: F_2.O_m coincides with C_3.O_m, whose exact value is
    available from known_exact_c3_corona.
    """
    if n == 2:
        raise ValueError(
            "F_2.O_m equals C_3.O_m; use known_exact_c3_corona(m) "
            "for the exact value instead of this bound")
    if n < 3:
        raise ValueError(f"fan corona needs n >= 3, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return m * (n + 1) + 3


def known_exact_c3_corona(m: int) -> int:
    """Exact local antimagic chromatic number of C_3.O_m: 5 when m=1,
    otherwise 3m+3."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return 5 if m == 1 else 3 * m + 3


def known_exact_kn_k1(n: int) -> int:
    """Exact local antimagic chromatic number of K_n.K_1: 2n-1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
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


def _witness(name, n, m, r, lhs, rhs, relation=">", in_scope=True,
             printed=None) -> InequalityWitness:
    holds = lhs > rhs if relation == ">" else lhs == rhs
    matches = None if printed is None else printed == lhs - rhs
    return InequalityWitness(name, n, m, r, lhs, rhs, relation, holds,
                             in_scope, printed, matches)


def friendship_witnesses(n: int, m: int) -> list[InequalityWitness]:
    """The three inequalities behind lb_friendship at one (n, m).

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
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    q = _q_friendship(n, m)
    out = []
    out.append(_witness(
        "friendship-hub-gap", n, m, None,
        lhs=2 * _triangular(2 * n + m), rhs=2 * q,
        printed=4 * n * n + m * m + m + 1))
    inner_edges = n * (2 * m + 3)
    out.append(_witness(
        "friendship-inner-pair-sum", n, m, None,
        lhs=inner_edges * (inner_edges + 1), rhs=2 * n * (2 * q - 1),
        printed=(4 * m * m * n * n + 4 * m * n * n - 2 * m * n
                 - 3 * n * n + 5 * n)))
    heavy_edges = n * (m + 2)
    out.append(_witness(
        "friendship-top-color-sum", n, m, None,
        lhs=_triangular(heavy_edges), rhs=n * q,
        printed=(2 * n * n * (m + 1) + n + m * n * (m * n + 1) // 2
                 - (3 * n * n + m * n * (2 * n + 1)))))
    return out


def fan_witnesses(n: int, m: int) -> list[InequalityWitness]:
    """The inequalities and identities behind lb_fan at one (n, m).

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
    if n < 3 or m < 1:
        raise ValueError("need n >= 3 and m >= 1")
    q = _q_fan(n, m)
    out = []
    out.append(_witness(
        "fan-hub-gap", n, m, None,
        lhs=2 * _triangular(m + n), rhs=2 * q,
        printed=m * m - m + n * n - 3 * n + 1))
    for r in range(1, n):
        in_scope = 2 * r <= n
        light_edges = (m + 1) * (n - r) + n - 1
        out.append(_witness(
            "fan-light-edge-count", n, m, r,
            lhs=(m + 2) * n - 1 - r * (m + 1), rhs=light_edges,
            relation="=", in_scope=in_scope))
        out.append(_witness(
            "fan-light-sum-exact", n, m, r,
            lhs=2 * _triangular(light_edges), rhs=2 * (n - r) * q,
            in_scope=in_scope,
            printed=((n - r) * (m * m * (n - r) + 2 * m * (n - r)
                                - 3 * m - n - r - 1) + n * n - n)))
        if in_scope:
            out.append(_witness(
                "fan-light-sum-chain", n, m, r,
                lhs=n * (m * m * n + n - 6), rhs=0, in_scope=True))
    if (n, m) == (3, 1):
        out.append(_witness(
            "fan-f3o1-refinement", 3, 1, None,
            lhs=_triangular(6), rhs=2 * q))
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


def witnesses_to_csv(witnesses, fp) -> None:
    """Write witnesses to an open text file as CSV (None fields blank)."""
    writer = csv.writer(fp)
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(map(attrgetter(*_CSV_COLUMNS), witnesses))


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
    """Aggregate the known bounds for one family instance."""
    if family == "friendship-corona":
        lemma = lb_friendship(n, m)
        if m == 1:
            exact = 2 * n + 3
            return BoundReport(family, n, m, lower=exact, upper=exact,
                               exact=exact, provenance=FN_O1_EXACT,
                               lemma_lower=lemma,
                               lemma_provenance=FRIENDSHIP_LOWER)
        return BoundReport(family, n, m, lower=lemma,
                           upper=None, exact=None,
                           provenance=FRIENDSHIP_LOWER, lemma_lower=lemma,
                           lemma_provenance=FRIENDSHIP_LOWER)
    if family == "fan-corona":
        lemma = lb_fan(n, m)  # n=2 redirect happens in lb_fan
        return BoundReport(family, n, m, lower=lemma,
                           upper=None, exact=None,
                           provenance=FAN_LOWER, lemma_lower=lemma,
                           lemma_provenance=FAN_LOWER)
    if family == "c3-corona":
        exact = known_exact_c3_corona(m)
        return BoundReport(family, 3, m, lower=exact, upper=exact,
                           exact=exact, provenance=C3_EXACT)
    if family == "kn-k1":
        exact = known_exact_kn_k1(n)
        return BoundReport(family, n, 1, lower=exact, upper=exact,
                           exact=exact, provenance=KN_K1_EXACT)
    raise ValueError(f"unknown family {family!r}; "
                     f"expected one of {', '.join(REPORT_FAMILIES)}")
