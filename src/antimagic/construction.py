"""Explicit local antimagic labelings for friendship coronas with one pendant
per vertex (friendship(n) o null_graph(1)).

For every n >= 2 these graphs admit a labeling with exactly 2n+3 distinct
induced weights, which is optimal.  The labeling is given in closed form by
two 3-row integer matrices whose columns all share the same sum, so every
inner u-vertex gets one common weight and every inner v-vertex another.  The
odd and even cases use different matrices; n=2 and n=4 fit neither case's
formulas, so their matrices are written out.  All n are assembled and
checked the same way: the closed-form weights of the odd and even cases
first, vertex group by vertex group, then the 2n+3 colour count.
``certificate_for`` carries the labeling onto any isomorphic copy of the
corona, whatever its numbering.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph
from .graphs import friendship_corona
from .iso import _friendship_o1_n, _isomorphism
from .labeling import Certificate, make_certificate


class ConstructionError(RuntimeError):
    """Internal consistency failure while materializing a labeling."""


# -- the matrices -------------------------------------------------------------
# Column i of a matrix holds triangle i's labels.  The u-matrix's rows label
# (1) the u-pendant edge, (2) the hub-u spoke and (3) the triangle edge
# u_i v_i; the v-matrix's rows label (1) the triangle edge again, (2) the
# hub-v spoke and (3) the v-pendant edge.  Every column of a matrix but the
# even case's n-th has the same sum.


def odd_matrices(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The u- and v-matrices for odd n >= 3, three rows of n columns each.

    Every halving below is exact because n is odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"odd-case formulas need odd n >= 3, got {n}")
    cols = range(1, n + 1)
    triangle = [3 * n + 1 - i for i in cols]
    mu = [[4 * n + (i + 1) // 2 if i % 2 else (9 * n + 1) // 2 + i // 2
           for i in cols],
          [(7 * n + 1) // 2 + (i - 1) // 2 if i % 2 else 3 * n + i // 2
           for i in cols],
          triangle]
    mv = [triangle.copy(),
          [(3 * n + 1) // 2 + (i - 1) // 2 if i % 2 else n + i // 2
           for i in cols],
          [(i + 1) // 2 if i % 2 else (n + 1) // 2 + i // 2 for i in cols]]
    return mu, mv


def even_matrices(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The u- and v-matrices for even n >= 6, three rows of n columns each.

    The first n-1 columns follow the formulas and share the column sums; the
    n-th takes the special labels 2n+2, 2n, 1 (u rows) and 1, 2n+1, 2n+3
    (v rows)."""
    if n < 6 or n % 2:
        raise ValueError(f"even-case formulas need even n >= 6, got {n}")
    cols = range(1, n)
    triangle = [3 * n + 3 - i for i in cols] + [1]
    mu = [[4 * n + 3 + (i - 1) // 2 if i % 2 else 9 * n // 2 + 2 + i // 2
           for i in cols] + [2 * n + 2],
          [7 * n // 2 + 3 + (i - 1) // 2 if i % 2 else 3 * n + 3 + i // 2
           for i in cols] + [2 * n],
          triangle]
    mv = [triangle.copy(),
          [3 * n // 2 + (i - 1) // 2 if i % 2 else n + i // 2
           for i in cols] + [2 * n + 1],
          [(i + 3) // 2 if i % 2 else n // 2 + 1 + i // 2
           for i in cols] + [2 * n + 3]]
    return mu, mv


# -- assembled constructions --------------------------------------------------


class ConstructionReport(NamedTuple):
    n: int
    case: str  # "odd" | "even" | "small"
    graph: Graph
    certificate: Certificate
    closed_forms: dict[str, int]

    @property
    def colors(self) -> frozenset[int]:
        """The distinct weights, read off the certificate."""
        return frozenset(self.certificate.weights)


def chi_la_friendship_o1(n: int) -> int:
    """Exact local antimagic chromatic number of friendship(n) o K1: 2n+3."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 2 * n + 3


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise ConstructionError(f"construction bug: {what}")


def _span(closed: dict[str, int], side: str) -> set[int]:
    """The weights w_{side}_pendant_min..w_{side}_pendant_max."""
    return set(range(closed[f"w_{side}_pendant_min"],
                     closed[f"w_{side}_pendant_max"] + 1))


def _check_optimal(cert: Certificate, n: int, what: str) -> None:
    """Require ``cert`` to be local antimagic with exactly 2n+3 colors."""
    chi = chi_la_friendship_o1(n)
    _check(cert.verdict.ok and cert.color_count == chi,
           f"{what} is not local antimagic with {chi} colors "
           f"(ok={cert.verdict.ok}, {cert.color_count} colors)")


def _assemble(n: int, case: str, mu, mv, hub_pendant: int,
              closed: dict[str, int], checks) -> ConstructionReport:
    """Label friendship_corona(n, 1) with the rows of the n-column matrices
    ``mu`` and ``mv`` and check the induced weights.

    The labels are listed in the corona's edge order: the hub-u_i spokes
    (u row 2), the hub-v_i spokes (v row 2), the triangle edges u_i v_i
    (u row 3), the hub's pendant edge (labelled ``hub_pendant``), then the
    pendant edges of the u_i (u row 1) and of the v_i (v row 3).  Each
    ``(what, vertices, expected)`` in ``checks`` requires the set of
    weights on ``vertices`` to equal ``expected``; these run before the
    colour count, so a broken matrix is named by the vertex group it breaks.
    """
    g = friendship_corona(n, 1)
    cert = make_certificate(g, mu[1] + mv[1] + mu[2] + [hub_pendant]
                            + mu[0] + mv[2])
    w = cert.weights
    for what, vertices, expected in checks:
        got = {w[x] for x in vertices}
        _check(got == expected, f"{case} n={n} {what} weights {sorted(got)} "
                                f"!= {sorted(expected)}")
    _check_optimal(cert, n, f"{case} n={n} labeling")
    return ConstructionReport(n, case, g, cert, closed)


def construct_odd(n: int) -> ConstructionReport:
    """Closed-form labeling for odd n >= 3 with exactly 2n+3 colors."""
    mu, mv = odd_matrices(n)
    x1 = 2 * n + 1  # the hub's pendant; vertex b's is x1 + b
    u, v = range(1, n + 1), range(n + 1, 2 * n + 1)
    closed = {
        "w_hub": (n + 1) * (5 * n + 1),
        "w_inner_u": (21 * n + 3) // 2,
        "w_inner_v": (9 * n + 3) // 2,
        "w_hub_pendant": 5 * n + 1,
        "w_u_pendant_min": 4 * n + 1,
        "w_u_pendant_max": 5 * n,
        "w_v_pendant_min": 1,
        "w_v_pendant_max": n,
    }
    checks = [
        ("hub", [0], {closed["w_hub"]}),
        ("inner u", u, {closed["w_inner_u"]}),
        ("inner v", v, {closed["w_inner_v"]}),
        ("hub pendant", [x1], {closed["w_hub_pendant"]}),
        ("u-pendant", [x1 + b for b in u], _span(closed, "u")),
        ("v-pendant", [x1 + b for b in v], _span(closed, "v")),
    ]
    return _assemble(n, "odd", mu, mv, closed["w_hub_pendant"], closed,
                     checks)


def construct_even(n: int) -> ConstructionReport:
    """Closed-form labeling for even n >= 6 with exactly 2n+3 colors."""
    mu, mv = even_matrices(n)
    x1 = 2 * n + 1  # the hub's pendant; vertex b's is x1 + b
    u, v = range(1, n), range(n + 1, 2 * n)
    un, vn = n, 2 * n
    closed = {
        "w_hub": 5 * n * n + 5 * n + 1,
        "w_inner_u": 21 * n // 2 + 8,
        "w_inner_v": 9 * n // 2 + 4,
        "w_hub_pendant": 3 * n + 3,
        "w_u_last": 4 * n + 3,
        "w_v_last": 4 * n + 5,
        "w_u_last_pendant": 2 * n + 2,
        "w_v_last_pendant": 2 * n + 3,
        "w_u_pendant_min": 4 * n + 3,
        "w_u_pendant_max": 5 * n + 1,
        "w_v_pendant_min": 2,
        "w_v_pendant_max": n,
    }
    checks = [
        ("hub", [0], {closed["w_hub"]}),
        ("inner u", u, {closed["w_inner_u"]}),
        ("inner v", v, {closed["w_inner_v"]}),
        ("last u", [un], {closed["w_u_last"]}),
        ("last v", [vn], {closed["w_v_last"]}),
        ("hub pendant", [x1], {closed["w_hub_pendant"]}),
        ("u-pendant", [x1 + b for b in u], _span(closed, "u")),
        ("v-pendant", [x1 + b for b in v], _span(closed, "v")),
        ("last u-pendant", [x1 + un], {closed["w_u_last_pendant"]}),
        ("last v-pendant", [x1 + vn], {closed["w_v_last_pendant"]}),
    ]
    return _assemble(n, "even", mu, mv, closed["w_hub_pendant"], closed,
                     checks)


# n -> (u-matrix, v-matrix, hub pendant label) for the n that fit neither
# case's formulas; the column sums are 20/11 for n=2 and 46/21 for n=4
_SMALL = {
    2: ([[11, 10], [8, 6], [1, 4]], [[1, 4], [3, 2], [7, 5]], 9),
    4: ([[16, 17, 18, 21], [19, 15, 20, 12], [11, 14, 8, 13]],
        [[11, 14, 8, 13], [4, 2, 3, 1], [6, 5, 10, 7]], 9),
}


def construct_small(n: int) -> ConstructionReport:
    """Labeling for n in {2, 4} with exactly 2n+3 colors, from the matrices
    in ``_SMALL``."""
    if n not in _SMALL:
        raise ValueError(f"small cases are n=2 and n=4, got {n}")
    return _assemble(n, "small", *_SMALL[n], {}, [])


def construct(n: int) -> ConstructionReport:
    """Optimal labeling report for friendship(n) o K1, any n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n in _SMALL:
        return construct_small(n)
    if n % 2:
        return construct_odd(n)
    return construct_even(n)


def certificate_for(g: Graph) -> Certificate | None:
    """The 2n+3 labeling of ``construct(n)`` on ``g``'s own vertex and edge
    numbering when ``g`` is isomorphic to friendship_corona(n, 1), else None.

    Graphs whose order, size or degree multiset differ from the corona's are
    turned away before any construction or isomorphism search runs."""
    n = _friendship_o1_n(g)
    if n is None:
        return None
    report = construct(n)
    h = report.graph
    pi = _isomorphism([h.neighbors(v) for v in range(h.p)], [0] * h.p,
                      [0] * g.p, [g.neighbors(v) for v in range(g.p)])
    if pi is None:
        return None
    labels = [0] * g.q
    for (a, b), label in zip(h.edges, report.certificate.labels):
        labels[g.edge_index(pi[a], pi[b])] = label
    cert = make_certificate(g, labels)
    _check_optimal(cert, n, f"n={n} labeling mapped onto an isomorphic copy")
    return cert
