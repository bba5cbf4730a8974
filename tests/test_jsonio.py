"""Schema stamping and version checks for the on-disk JSON documents."""

import pytest

from antimagic import jsonio


def test_stamp_and_check_round_trip():
    doc = jsonio.stamp({"hello": 1})
    assert doc["schema_version"] == jsonio.SCHEMA_VERSION
    jsonio.check_version(doc)  # should not raise


def test_check_rejects_missing_and_wrong_versions():
    with pytest.raises(jsonio.SchemaVersionError):
        jsonio.check_version({})
    with pytest.raises(jsonio.SchemaVersionError):
        jsonio.check_version({"schema_version": 999}, "certificate")


def test_schema_error_is_a_value_error():
    # the CLI maps usage errors to one exit code via this subclassing
    assert issubclass(jsonio.SchemaVersionError, ValueError)
