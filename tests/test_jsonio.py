"""Schema stamping and version checks for the on-disk JSON documents."""

import pytest

from antimagic import jsonio


def test_stamp_and_check_round_trip():
    doc = jsonio.stamp({"hello": 1})
    assert doc["schema_version"] == jsonio.SCHEMA_VERSION
    jsonio.check_version(doc)  # should not raise


def test_check_rejects_missing_and_wrong_versions():
    with pytest.raises(ValueError, match=r"^unsupported document "
                       r"schema_version None \(expected 1\)$"):
        jsonio.check_version({})
    with pytest.raises(ValueError, match=r"^unsupported certificate "
                       r"schema_version 999 \(expected 1\)$"):
        jsonio.check_version({"schema_version": 999}, "certificate")


@pytest.mark.parametrize("version", [True, 1.0])
def test_check_rejects_versions_that_only_equal_1(version):
    # True == 1 and 1.0 == 1 in Python: only a plain int is a version
    with pytest.raises(ValueError) as exc:
        jsonio.check_version({"schema_version": version}, "graph")
    assert str(exc.value) == (
        f"unsupported graph schema_version {version!r} (expected 1)")


@pytest.mark.parametrize("doc", [[1, 2], "x", None, 3])
def test_check_rejects_documents_that_are_not_objects(doc):
    with pytest.raises(ValueError, match="certificate document is not a JSON "
                                         "object"):
        jsonio.check_version(doc, "certificate")
