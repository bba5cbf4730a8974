"""The CLI subcommands other than solve and label: gen, verify, bounds,
sweep and export-dot, with the rows of their arguments, which ``cli``
reads as it reads those of solve and label.

``cli`` loads this module when one of these five is named, and for any argv
that it hands to argparse, whose parser is built from the rows of all seven;
so a ``solve`` or ``label`` argv spelled in full never compiles it, nor the
family builders it imports unless the solver seeds a friendship corona.
It does not import ``cli``: under ``python -m antimagic.cli`` the running
CLI is ``__main__``, and that import would compile ``cli`` a second time.
The file helpers and exit codes that both share are in ``jsonio``.

``gen`` and ``bounds`` take a family's ``--n`` and ``--m`` by one rule: a flag
the family reads is required, a flag it fixes (n = 3 for c3-corona, m = 1 for
kn-k1) is accepted only at that value, and any other flag given is refused.
The bounds module is loaded only by ``bounds`` and ``sweep``.
"""

from __future__ import annotations

import sys

from .graphs import (REPORT_FAMILIES, complete, corona, cycle, fan,
                     fan_corona, friendship, friendship_corona, null_graph,
                     path)
from .jsonio import (EXIT_OK, EXIT_VERIFY, _dump, _load_graph, _load_json,
                     _write_out)
from .labeling import (Certificate, GraphMismatchError, InvalidLabelingError,
                       make_certificate, verify_certificate)

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
            labels, graph_hash = doc["labels"], doc.get("graph_hash")
            if not isinstance(labels, list):
                raise ValueError("labeling labels must be a list")
            # refused as Certificate.from_doc refuses it, not as a mismatch
            if not (graph_hash is None or isinstance(graph_hash, str)):
                raise ValueError("labeling graph_hash must be a string")
            if graph_hash not in (None, g.content_hash()):
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
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
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


# -- arguments -----------------------------------------------------------------

# subcommand -> (argument rows, handler); a row is (flag, type, default,
# help), read by ``cli._command``, which holds the help lines and appends
# --out
COMMANDS = {
    "gen": ((("family", tuple(_FAMILIES), ..., ""),
             ("--n", int, None, ""),
             ("--m", int, None, "")), cmd_gen),
    "verify": ((("graph", str, ..., ""),
                ("labeling", str, ..., "labeling or certificate JSON file")),
               cmd_verify),
    "bounds": ((("--family", REPORT_FAMILIES, ..., ""),
                ("--n", int, None, ""),
                ("--m", int, 1, "")), cmd_bounds),
    "sweep": ((("target", tuple(_SWEEPS), ..., ""),
               ("--n-min", int, None, ""),
               ("--n-max", int, 50, ""),
               ("--m-min", int, 1, ""),
               ("--m-max", int, 50, ""),
               ("--format", ("csv", "json"), "csv", "")), cmd_sweep),
    "export-dot": ((("graph", str, ..., ""),
                    ("--certificate", str, None,
                     "overlay labels/weights from a certificate")),
                   cmd_export_dot),
}
