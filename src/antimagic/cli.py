"""Command-line interface.

Subcommands: gen (family generators), label (a verified certificate),
verify (labeling/certificate checker), solve (exact search), bounds
(closed-form report), sweep (inequality audit as CSV), export-dot.
``label`` answers as ``solve`` does, from the cache or the solver, and
writes the answer's certificate; on a copy of friendship_corona(n, 1) that
is the paper's 2n+3 construction on the file's own numbering.  A budget
that is not positive, and a graph the solver refuses (fewer than 2 edges,
or not connected), are refused before the cache is read or created, with
or without ``--target-colors``.

``gen`` and ``bounds`` take a family's ``--n`` and ``--m`` by one rule: a flag
the family reads is required, a flag it fixes (n = 3 for c3-corona, m = 1 for
kn-k1) is accepted only at that value, and any other flag given is refused.

Solver results are cached in one append-only JSONL index, keyed by graph
content hash; each record carries its certificate and, for an exact solve,
chi.  A record is trusted only after its certificate re-verifies and agrees
with the record's chi.  A cached certificate answers any feasibility query
with at least its colour count, and a cached chi answers the exact query and
every feasibility query below it.  Cache location: --cache-dir, else
$ANTIMAGIC_CACHE_DIR, else ./.antimagic-cache.

Exit codes: 0 success, 1 standard output closed by its reader (as by
``| head``), 2 usage or domain error (a graph too large for the recursive
search among them), 3 verification failure, 4 budget exhausted.

``main`` builds the parser of the subcommand that its first argument names
and no other; it builds all seven only when that argument names none (no
argument, ``-h``, a typo), so that top-level help and usage errors list them
all.  The bounds module is loaded only by ``bounds`` and ``sweep``, the
solver only by a ``solve`` or ``label`` that the cache cannot answer,
``fcntl`` only to write a record to the cache, and the construction module
only by the solver, for a graph with the size and degrees of a friendship
corona with one pendant per vertex, so a ``solve`` of any other graph starts
without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import jsonio
from .graphs import (REPORT_FAMILIES, Graph, _is_int, complete, corona, cycle,
                     fan, fan_corona, friendship, friendship_corona,
                     null_graph, path)
from .labeling import (BUDGET_EXHAUSTED, EXACT, FEASIBLE, INFEASIBLE,
                       Certificate, GraphMismatchError, InvalidLabelingError,
                       SearchConfig, _check_k, _validate_instance,
                       make_certificate, verify_certificate)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4

CACHE_ENV = "ANTIMAGIC_CACHE_DIR"
DEFAULT_CACHE = ".antimagic-cache"


def _write_out(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _dump(doc: dict, out: str | None) -> None:
    _write_out(json.dumps(doc, indent=2, sort_keys=True), out)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_graph(path: str) -> Graph:
    return Graph.from_doc(_load_json(path))


# -- certificate cache ---------------------------------------------------------


def _cache_lookup(cache: Path, g: Graph
                  ) -> tuple[Certificate, int | None] | None:
    """Certificate and exact chi (None for a feasibility answer) of the last
    record for g, if that certificate re-verifies against g and has the
    colour count of the record's chi."""
    index = cache / "cache.jsonl"
    if not index.is_file():
        return None
    key = g.content_hash()
    best = None
    with open(index) as fh:
        for line in fh:
            if key not in line:
                continue  # another graph's record: not worth parsing
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write at the tail, or a blank line; ignore
            if isinstance(rec, dict) and rec.get("graph_hash") == key:
                best = rec
    if best is None:
        return None
    try:
        # an older record naming a certificate file is refused by from_doc
        cert = Certificate.from_doc(best["certificate"])
        if not verify_certificate(cert, g):
            return None
    except (ValueError, KeyError, TypeError):
        return None
    exact = best.get("exact")
    # 5.0 == 5 and True == 1 in Python: only a plain int is a chi
    if not (exact is None or _is_int(exact) and exact == cert.color_count):
        return None
    return cert, exact


def _utc_now() -> str:
    """The current UTC time in ISO 8601: 2026-01-31T12:00:00.123456+00:00."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00"


def _cache_store(cache: Path, g: Graph, cert: Certificate,
                 exact: int | None) -> None:
    record = jsonio.stamp({
        "graph_hash": g.content_hash(),
        "family": g.family,
        "exact": exact,
        "certificate": cert.to_doc(),
        "created": _utc_now(),
    })
    import fcntl  # here, so that a cache hit never loads it
    # one write of one line under the lock, so concurrent appends never
    # interleave; a torn tail line is skipped by _cache_lookup
    with open(cache / "cache.jsonl", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


# -- subcommands -----------------------------------------------------------------


# family -> (builder, the flags it reads, the flags it fixes with their
# values); the builder takes the family's n and m, those it has, in order
_FAMILIES = {
    "friendship-corona": (friendship_corona, ("n", "m"), {}),
    "fan-corona": (fan_corona, ("n", "m"), {}),
    "c3-corona": (lambda n, m: corona(cycle(n), null_graph(m)), ("m",),
                  {"n": 3}),
    "kn-k1": (lambda n, m: corona(complete(n), complete(m)), ("n",),
              {"m": 1}),
    "friendship": (friendship, ("n",), {}),
    "fan": (fan, ("n",), {}),
    "cycle": (cycle, ("n",), {}),
    "path": (path, ("n",), {}),
    "complete": (complete, ("n",), {}),
    "null": (null_graph, ("n",), {}),
}


def _family_args(args) -> list[int]:
    """The family's n and m, those it has, in order, by the module's rule."""
    _build, reads, fixes = _FAMILIES[args.family]
    values = []
    for name in ("n", "m"):
        given = getattr(args, name)
        if name in reads:
            if given is None:
                raise ValueError(f"family {args.family!r} requires --{name}")
            values.append(given)
        elif name in fixes:
            if given not in (None, fixes[name]):
                raise ValueError(f"family {args.family!r} has {name} = "
                                 f"{fixes[name]}, got --{name} {given}")
            values.append(fixes[name])
        elif given is not None:
            raise ValueError(f"family {args.family!r} does not read --{name}")
    return values


def cmd_gen(args) -> int:
    build = _FAMILIES[args.family][0]
    g = build(*_family_args(args))
    _dump(g.to_doc(), args.out)
    return EXIT_OK


def _solve(g: Graph, args) -> dict:
    """Shared engine behind solve and label: the answer document, from the
    cache or the solver."""
    cache = Path(args.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE)
    target = args.target_colors
    # before the cache, which would answer any budget and any k and whose
    # directory a miss creates; the graph before k, so that a graph the
    # solver refuses is named as such, not by its k range
    cfg = SearchConfig(time_budget=args.time_budget,
                       node_budget=args.node_budget)
    _validate_instance(g)
    if target is not None:
        _check_k(g, target)
    hit = _cache_lookup(cache, g)
    if hit is not None:
        cert, exact = hit
        if target is None:
            if exact is not None:
                return {"status": EXACT, "chi": exact, "cached": True,
                        "certificate": cert.to_doc()}
        elif cert.color_count <= target:
            return {"status": FEASIBLE, "cached": True,
                    "certificate": cert.to_doc()}
        elif exact is not None:
            return {"status": INFEASIBLE, "infeasible_k": target,
                    "cached": True}
    # before the search, so that an unusable cache directory is refused at
    # once; a hit never creates it
    cache.mkdir(parents=True, exist_ok=True)
    # loaded only here, so that a cache hit never compiles the solver
    from .solver import exact_chi_la, feasible_with_k_colors
    try:
        if target is None:
            outcome = exact_chi_la(g, cfg)
        else:
            outcome = feasible_with_k_colors(g, target, cfg)
    except RecursionError:
        # the search recurses once per placed edge, so a graph with about
        # a thousand edges or more outgrows Python's recursion limit
        raise ValueError("graph too large for the search: maximum "
                         "recursion depth exceeded") from None
    doc = {"status": outcome.status,
           "nodes_explored": outcome.nodes_explored,
           "wall_time": round(outcome.wall_time, 6)}
    if outcome.status == EXACT:
        doc["chi"] = outcome.chi
    elif outcome.status == INFEASIBLE:
        doc["infeasible_k"] = outcome.infeasible_k
    elif outcome.best_so_far is not None:
        doc["best_so_far_colors"] = outcome.best_so_far.color_count
    # an exact or feasible answer, the two that carry a certificate
    if outcome.certificate is not None:
        doc["certificate"] = outcome.certificate.to_doc()
        _cache_store(cache, g, outcome.certificate, exact=outcome.chi)
    return doc


def cmd_solve(args) -> int:
    doc = _solve(_load_graph(args.graph), args)
    _dump(doc, args.out)
    return EXIT_BUDGET if doc["status"] == BUDGET_EXHAUSTED else EXIT_OK


def cmd_label(args) -> int:
    doc = _solve(_load_graph(args.graph), args)
    # a proven-infeasible target leaves no certificate to write
    if doc["status"] == INFEASIBLE:
        k = doc["infeasible_k"]
        raise ValueError(f"no labeling with at most {k} colours exists "
                         f"(--target-colors {k} is proven infeasible)")
    if "certificate" not in doc:  # the budget ran out first
        _dump(doc, args.out)
        return EXIT_BUDGET
    _dump(doc["certificate"], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    doc = _load_json(args.labeling)
    try:
        # a document that is not an object is refused by Certificate.from_doc
        if not isinstance(doc, dict) or "verdict" in doc:
            kind = "certificate"
            cert = Certificate.from_doc(doc)
            ok = verify_certificate(cert, g)
        else:
            kind = "labeling"
            labels = doc["labels"]
            if not isinstance(labels, list):
                raise ValueError("labeling labels must be a list")
            if doc.get("graph_hash") not in (None, g.content_hash()):
                raise GraphMismatchError("labeling was made for a different "
                                         "graph (content hash mismatch)")
            cert = make_certificate(g, labels)
            ok = cert.verdict.ok
    except (InvalidLabelingError, GraphMismatchError) as exc:
        _dump({"ok": False, "error": str(exc)}, args.out)
        return EXIT_VERIFY
    _dump({"kind": kind, "ok": bool(ok), "color_count": cert.color_count,
           "verdict": cert.verdict.to_doc()}, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bounds(args) -> int:
    n, m = _family_args(args)
    from . import bounds
    report = bounds.bound_report(args.family, n, m)
    _dump(report.to_doc(), args.out)
    return EXIT_OK


# target -> (name of the sweep in bounds, looked up at call time; first n)
_SWEEPS = {"friendship": ("sweep_friendship_inequalities", 2),
           "fan": ("sweep_fan_inequalities", 3)}


def cmd_sweep(args) -> int:
    from . import bounds
    sweep, first_n = _SWEEPS[args.target]
    n_lo = first_n if args.n_min is None else args.n_min
    witnesses = getattr(bounds, sweep)(range(n_lo, args.n_max + 1),
                                       range(args.m_min, args.m_max + 1))
    if args.format == "json":
        _write_out(bounds.witnesses_to_json(witnesses), args.out)
    elif args.out in (None, "-"):
        bounds.witnesses_to_csv(witnesses, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            bounds.witnesses_to_csv(witnesses, fh)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    labels = weights = None
    if args.certificate:
        cert = Certificate.from_doc(_load_json(args.certificate))
        if not verify_certificate(cert, g):
            raise GraphMismatchError("certificate does not verify against "
                                     "this graph")
        labels, weights = list(cert.labels), list(cert.weights)
    _write_out(g.to_dot(labels=labels, weights=weights), args.out)
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("labeling", help="labeling or certificate JSON file")


def _solve_args(p: argparse.ArgumentParser) -> None:
    """The arguments of solve and label, which take the same ones."""
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--target-colors", type=int, default=None,
                   help="feasibility mode: search for <= K colors")
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--node-budget", type=int, default=None,
                   help="search node budget")
    p.add_argument("--cache-dir", default=None,
                   help=f"certificate cache (default ${CACHE_ENV} or "
                        f"./{DEFAULT_CACHE})")


def _bounds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=list(REPORT_FAMILIES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=1)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", choices=["friendship", "fan"])
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=50)
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _export_dot_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--certificate", default=None,
                   help="overlay labels/weights from a certificate")


# subcommand -> (help line, argument adder, handler), in the order that
# top-level help lists them; every subcommand also takes --out
_COMMANDS = {
    "gen": ("generate a graph family instance", _gen_args, cmd_gen),
    "label": ("produce a verified certificate", _solve_args, cmd_label),
    "verify": ("check a labeling or certificate", _verify_args, cmd_verify),
    "solve": ("exact search for the optimum", _solve_args, cmd_solve),
    "bounds": ("closed-form bound report", _bounds_args, cmd_bounds),
    "sweep": ("evaluate bound inequalities over a grid", _sweep_args,
              cmd_sweep),
    "export-dot": ("write Graphviz DOT", _export_dot_args, cmd_export_dot),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` alone, or with every
    subparser when ``command`` names none of them (no argument, ``-h``, a
    typo), so that top-level help and a bad command list them all."""
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Local antimagic labelings of corona-product graphs.")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a usage line printed once the subcommand has parsed (an unrecognised
    # argument) names every subcommand, however many were built
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if len(names) > 1 else "{%s}" % ",".join(_COMMANDS))
    for name in names:
        help_line, add_args, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left goes to os.devnull, so that the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except GraphMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except KeyError as exc:  # a field a document must have
        print(f"error: missing field {exc.args[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        # an OSError is a path that cannot be read or written, as a
        # directory named where a file is wanted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
