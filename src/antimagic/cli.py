"""Command-line interface.

Subcommands: gen (family generators), label (a verified certificate),
verify (labeling/certificate checker), solve (exact search), bounds
(closed-form report), sweep (inequality audit as CSV), export-dot.
``label`` answers as ``solve`` does, from the cache or the solver, and
writes the answer's certificate; on a copy of friendship_corona(n, 1) that
is the paper's 2n+3 construction on the file's own numbering.  A budget
that is not positive, and a graph the solver refuses (fewer than 2 edges,
or not connected), are refused before the cache is read or created, with
or without ``--target-colors``.  This module holds solve and label; the
other five subcommands are in ``commands``.

Solver results are cached in one append-only JSONL index, keyed by graph
content hash; each record carries its certificate and, for an exact solve,
chi.  A record is trusted only after its certificate re-verifies and agrees
with the record's chi; an index line that is not JSON, or not UTF-8, is
skipped.  A cached certificate answers any feasibility query with at least
its colour count, and a cached chi answers the exact query and every
feasibility query below it.  Cache location: --cache-dir, else
$ANTIMAGIC_CACHE_DIR, else ./.antimagic-cache.

Exit codes: 0 success, 1 standard output closed by its reader (as by
``| head``), 2 usage or domain error (a graph too large for the recursive
search among them), 3 verification failure, 4 budget exhausted.

A process loads only the code it runs.  The arguments of each subcommand
are rows: those of solve and label are here, those of the other five in
``commands``.  ``_quick`` reads an argv that names a subcommand and spells
each of its arguments in full, by the rows of that subcommand alone and
without argparse (nor, with it, ``gettext`` and ``locale``).  Any other
argv (help, an abbreviated option, "--", a value that starts with "-",
one that argparse refuses) goes to argparse, whose parser
``commands.parser`` builds from the rows of all seven.  Read by ``_quick``,
a ``solve`` or ``label`` loads ``jsonio``, the graph record (``graph``) and
``labeling``: not the family builders (``graphs``), nor ``commands``, nor
``hashlib``, as the content hash is taken without OpenSSL.  The solver (and
with it the refinement and isomorphism code, ``iso``) is loaded only by a
``solve`` or ``label`` that the cache cannot answer, ``fcntl`` only to
write a record to the cache, and the construction module (which loads
``graphs``) and the root bound (``proof``) only by the solver, for a graph
with the size and degrees of a friendship corona with one pendant per
vertex, so a ``solve`` of any other graph starts without them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import jsonio
from .graph import Graph, _is_int
from .jsonio import (EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, _dump,
                     _load_graph)
from .labeling import (BUDGET_EXHAUSTED, EXACT, FEASIBLE, INFEASIBLE,
                       Certificate, GraphMismatchError, SearchConfig, _check_k,
                       _validate_instance, verify_certificate)

CACHE_ENV = "ANTIMAGIC_CACHE_DIR"
DEFAULT_CACHE = ".antimagic-cache"


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
    tag = key.encode()
    best = None
    # read as bytes, so that a line that is not UTF-8 is skipped as a torn
    # one is, and does not stop the read of the lines after it
    with open(index, "rb") as fh:
        for line in fh:
            if tag not in line:
                continue  # another graph's record: not worth parsing
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # a torn write, a blank line, bytes not UTF-8
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


# -- argument parser -----------------------------------------------------------

# An argument row: (flag, type, default, help).  A flag that starts with "-"
# names an option, any other a positional; the type is int, float or str, or
# the tuple of the values the argument accepts; a default of ... marks a
# required argument, as every positional is.  Every subcommand also takes
# --out, which _command appends.
_SOLVE_ARGS = (
    ("graph", str, ..., "graph JSON file"),
    ("--target-colors", int, None, "feasibility mode: search for <= K colors"),
    ("--time-budget", float, None, "wall-clock budget in seconds"),
    ("--node-budget", int, None, "search node budget"),
    ("--cache-dir", str, None,
     f"certificate cache (default ${CACHE_ENV} or ./{DEFAULT_CACHE})"),
)
_OUT = ("--out", str, None, "")

# subcommand -> (help line, handler), in the order that top-level help lists
# them.  Solve and label take the rows of _SOLVE_ARGS; a handler of None is
# one of the five that ``commands`` holds with their rows, loaded only when
# one of them is named or argparse reads the argv
_COMMANDS = {
    "gen": ("generate a graph family instance", None),
    "label": ("produce a verified certificate", cmd_label),
    "verify": ("check a labeling or certificate", None),
    "solve": ("exact search for the optimum", cmd_solve),
    "bounds": ("closed-form bound report", None),
    "sweep": ("evaluate bound inequalities over a grid", None),
    "export-dot": ("write Graphviz DOT", None),
}


def _command(name: str) -> tuple[tuple, object]:
    """The argument rows (``--out`` last) and the handler of ``name``."""
    rows, func = _SOLVE_ARGS, _COMMANDS[name][1]
    if func is None:
        from .commands import COMMANDS
        rows, func = COMMANDS[name]
    return (*rows, _OUT), func


def _quick(argv: list):
    """The namespace of an argv that names a subcommand and then gives its
    arguments spelled in full (``--flag value`` or ``--flag=value``), each
    value non-empty, not starting with "-" unless it is "-", and of its
    row's type or choices; None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows, func = _command(argv[0])
    options = {row[0]: row for row in rows if row[0][0] == "-"}
    todo = [row for row in rows if row[0][0] != "-"]
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag in options:
            row = options[flag]
            value = value if eq else next(tokens, "")
        elif todo:
            row, value = todo.pop(0), token
        else:
            return None
        if not value or value[0] == "-" and value != "-":
            return None
        kind = row[1]
        if type(kind) is tuple:
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[row[0]] = value  # the last repeat wins
    dests = {}
    for flag, _kind, default, _text in rows:
        if flag not in values and default is ...:
            return None  # a required argument is missing
        dests[flag.lstrip("-").replace("-", "_")] = values.get(flag, default)
    return SimpleNamespace(command=argv[0], func=func, **dests)


def parse_args(argv: list):
    """The command line ``argv`` as a namespace of the subcommand's name
    (``command``), its handler (``func``) and its arguments.  An argv that
    ``_quick`` cannot read is read by argparse, which prints help (exit 0)
    or refuses it (exit 2) as well."""
    args = _quick(argv)
    if args is None:
        # here, so that a quick solve or label never loads commands
        from .commands import parser
        args = parser(_COMMANDS, _command).parse_args(argv)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
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
