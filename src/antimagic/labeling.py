"""Edge labelings, induced vertex weights, and verifiable certificates.

A labeling assigns the integers 1..q bijectively to the edges of a graph; the
weight of a vertex is the sum of the labels on its incident edges.  The
labeling is *local antimagic* when every pair of adjacent vertices gets
distinct weights, so the weights form a proper vertex coloring.  All
arithmetic is exact integer arithmetic.

The module also holds the contract of a colour-count query, which the CLI
checks before its cache is read, so that a cache hit never loads the
solver: the status names of an answer, the rules on the instance and on k,
and the budgets (``SearchConfig``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graph import Graph, _is_int, _need_int
from .jsonio import check_version, stamp

# how a colour-count query was answered; the solver returns these, and the
# CLI also reads them on a cache hit
EXACT = "exact"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget-exhausted"


class InvalidLabelingError(ValueError):
    """Labeling is not a bijection onto 1..q; carries the first bad label."""

    def __init__(self, message: str, bad_label: int | None = None):
        super().__init__(message)
        self.bad_label = bad_label


class GraphMismatchError(ValueError):
    """Certificate or labeling refers to a different graph."""


def validate_labeling(g: Graph, labels: Sequence[int]) -> None:
    """Raise InvalidLabelingError unless labels is a permutation of 1..q.

    Reports the first duplicated label encountered scanning in edge order,
    or the first out-of-range value.
    """
    q = g.q
    if len(labels) != q:
        raise InvalidLabelingError(
            f"expected {q} labels, got {len(labels)}")
    # the common case, q distinct plain ints from 1 to q, in C-level passes;
    # anything else is scanned below to name the first bad label
    if (set(map(type, labels)) == {int} and len(set(labels)) == q
            and min(labels) == 1 and max(labels) == q):
        return
    seen = [False] * (q + 1)
    for lab in labels:
        if not isinstance(lab, int) or isinstance(lab, bool) or not 1 <= lab <= q:
            raise InvalidLabelingError(
                f"label {lab!r} outside 1..{q}", bad_label=lab)
        if seen[lab]:
            raise InvalidLabelingError(f"duplicate label {lab}", bad_label=lab)
        seen[lab] = True


def weights(g: Graph, labels: Sequence[int]) -> list[int]:
    """Induced vertex weights; total is always q(q+1)."""
    validate_labeling(g, labels)
    w = [0] * g.p
    for (a, b), lab in zip(g.edges, labels):
        w[a] += lab
        w[b] += lab
    return w


class Verdict(NamedTuple):
    """Outcome of the adjacency check.

    ``witness`` is the lowest-indexed edge whose endpoints tie, or None.
    """

    ok: bool
    witness: int | None = None

    def to_doc(self):
        return "local-antimagic" if self.ok else {"violation": self.witness}

    @classmethod
    def from_doc(cls, doc) -> "Verdict":
        if doc == "local-antimagic":
            return cls(True)
        if isinstance(doc, dict) and "violation" in doc:
            witness = doc["violation"]
            if not _is_int(witness):
                raise ValueError(
                    f"verdict violation must be an integer, got {witness!r}")
            return cls(False, witness)
        raise ValueError(f"unrecognized verdict {doc!r}")


class Certificate(NamedTuple):
    """Self-contained, re-checkable record of a labeling and its weights."""

    graph_hash: str
    labels: tuple[int, ...]
    weights: tuple[int, ...]
    color_count: int
    verdict: Verdict

    def to_doc(self) -> dict:
        return stamp({
            "graph_hash": self.graph_hash,
            "labels": list(self.labels),
            "weights": list(self.weights),
            "color_count": self.color_count,
            "verdict": self.verdict.to_doc(),
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "Certificate":
        check_version(doc, "certificate")
        graph_hash, labels, weights = (doc["graph_hash"], doc["labels"],
                                       doc["weights"])
        if not isinstance(graph_hash, str):
            raise ValueError("certificate graph_hash must be a string")
        if not isinstance(labels, list) or not isinstance(weights, list):
            raise ValueError("certificate labels and weights must be lists")
        color_count = doc["color_count"]
        if not (_is_int(color_count) and all(map(_is_int, weights))):
            raise ValueError(
                "certificate weights and color_count must be integers")
        return cls(graph_hash, tuple(labels), tuple(weights), color_count,
                   Verdict.from_doc(doc["verdict"]))


def make_certificate(g: Graph, labels: Sequence[int]) -> Certificate:
    w = weights(g, labels)
    verdict = Verdict(True)
    for idx, (a, b) in enumerate(g.edges):
        if w[a] == w[b]:
            verdict = Verdict(False, idx)
            break
    return Certificate(g.content_hash(), tuple(labels), tuple(w),
                       len(set(w)), verdict)


def _validate_instance(g: Graph) -> None:
    """Reject a graph that the solver does not search: fewer than 2 edges,
    or not connected."""
    if g.q < 2:
        raise ValueError("need a graph with at least 2 edges")
    if not g.is_connected():
        raise ValueError("need a connected graph")


def _check_k(g: Graph, k: int) -> None:
    """Reject a query for at most k colours unless k is an int in 2..p."""
    if not (_is_int(k) and 2 <= k <= g.p):
        raise ValueError(f"k must be in 2..{g.p}, got {k!r}")


class _ConfigFields(NamedTuple):
    time_budget: float | None = None
    node_budget: int | None = None


class SearchConfig(_ConfigFields):
    """Budgets for the branch-and-bound engine.

    The edge order and the symmetry constraints are fixed, so these settings
    never change an exact answer, only whether it is reached.  Budgets are
    totals for the public call, checked before each step of the descent and
    during it.  Node counts, and so a binding node budget, are
    deterministic; with a binding time budget only the reported status is.
    A node budget is an int >= 1, a time budget a positive non-bool number.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        tb = self.time_budget
        if tb is not None and (type(tb) is bool or not tb > 0):
            raise ValueError("time_budget must be positive")
        if self.node_budget is not None:
            _need_int(self.node_budget, 1, "node_budget must be positive")
        return self


def verify_certificate(cert: Certificate, g: Graph) -> bool:
    """Recompute everything from cert.labels and compare.

    Raises GraphMismatchError if the certificate references another graph;
    returns False for any discrepancy (including a non-bijective labeling).
    """
    if cert.graph_hash != g.content_hash():
        raise GraphMismatchError(
            f"certificate is for graph {cert.graph_hash[:12]}..., "
            f"not {g.content_hash()[:12]}...")
    try:
        fresh = make_certificate(g, cert.labels)
    except InvalidLabelingError:
        return False
    return fresh == cert

