"""Shared helpers for the JSON documents this package reads and writes.

Every document carries a ``schema_version`` field so files can be rejected
instead of misread when the format changes.
"""

from __future__ import annotations

SCHEMA_VERSION = 1


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
