"""Shared helpers for the JSON documents this package reads and writes.

Every document carries a ``schema_version`` field so files can be rejected
instead of misread when the format changes.

The CLI's file handling and exit codes are here too, so that ``cli`` (solve
and label) and ``commands`` (the other five subcommands) share one
definition of each without importing one another: a file is read as UTF-8,
as JSON must be, and a file that is not UTF-8 or not JSON is refused with
its path named; an ``--out`` file is written as UTF-8, whatever the locale.
"""

from __future__ import annotations

import json
import sys

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4


class SchemaVersionError(ValueError):
    """Raised when a document's schema version is missing or unsupported."""


def stamp(payload: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return doc


def check_version(doc: dict, kind: str = "document") -> None:
    """Raise ValueError unless ``doc`` is a JSON object with the supported
    schema version, a plain int (SchemaVersionError for a wrong or missing
    version; ``true`` and ``1.0`` equal 1 in Python but are not versions)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document is not a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported {kind} schema_version {version!r} (expected {SCHEMA_VERSION})"
        )


def _write_out(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _dump(doc: dict, out: str | None) -> None:
    _write_out(json.dumps(doc, indent=2, sort_keys=True), out)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_graph(path: str):
    """The ``Graph`` that the document at ``path`` describes."""
    from .graph import Graph  # here: graph imports this module
    return Graph.from_doc(_load_json(path))
