"""The package surface: public names resolved on first use, the immutable
result records, the solver's construction seed reached through a lazy
import in a fresh process, the README's Python examples and CLI block."""

import doctest
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import antimagic
from antimagic import (BoundReport, Certificate, ConstructionReport,
                       SearchConfig, SearchOutcome, Verdict, bound_report,
                       construct, friendship_corona, make_certificate)
from antimagic.cli import EXIT_OK, main
from conftest import relabeled

SRC = os.path.dirname(os.path.dirname(antimagic.__file__))
ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# each fenced Python block of the README, without its fences, and the number
# of README lines before it
README_BLOCKS = [(README.count("\n", 0, block.start(1)), block.group(1))
                 for block in re.finditer(r"^```python\n(.*?)^```$", README,
                                          re.M | re.S)]


def test_every_public_name_is_its_defining_modules_object():
    for name in antimagic.__all__:
        home = f"antimagic.{antimagic._HOME[name]}"
        value = getattr(antimagic, name)
        assert value is getattr(importlib.import_module(home), name), name
        assert getattr(value, "__module__", home) == home, name


def test_solver_still_offers_the_budgets_it_takes():
    assert antimagic.solver.SearchConfig is SearchConfig


def test_dir_covers_all():
    assert set(antimagic.__all__) <= set(dir(antimagic))


def test_star_import_binds_all():
    namespace = {}
    exec("from antimagic import *", namespace)
    assert set(antimagic.__all__) <= set(namespace)
    assert namespace["construct"] is antimagic.construct


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        antimagic.no_such_name


def test_import_loads_no_submodule_until_one_is_used():
    script = ("import sys, antimagic\n"
              "before = [m for m in sys.modules if 'antimagic.' in m]\n"
              "value = antimagic.bounds.lb_fan(3, 1)\n"
              "print(before, value, 'antimagic.solver' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["[]", "7", "False"]


def _records():
    g = friendship_corona(2, 1)
    cert = make_certificate(g, construct(2).certificate.labels)
    return [Verdict(False, 3), cert, SearchConfig(node_budget=5),
            SearchOutcome("exact", chi=7, certificate=cert, nodes_explored=9),
            bound_report("friendship-corona", 3, 2), construct(3)]


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    copy = type(record)(**record._asdict())
    assert copy == record and type(copy) is type(record)
    assert repr(copy) == repr(record)
    assert repr(record).startswith(type(record).__name__ + "(")
    if not isinstance(record, ConstructionReport):  # holds a dict
        assert hash(copy) == hash(record)


def test_record_defaults_and_field_order():
    assert repr(SearchConfig()) == ("SearchConfig(time_budget=None, "
                                    "node_budget=None)")
    assert SearchConfig._fields == ("time_budget", "node_budget")
    assert Verdict(True) == Verdict(True, None)
    assert SearchOutcome("infeasible").nodes_explored == 0
    assert list(bound_report("fan-corona", 3, 1).to_doc()) == [
        "family", "n", "m", "lower", "upper", "exact", "provenance",
        "lemma_lower", "lemma_provenance"]
    assert Certificate._fields == ("graph_hash", "labels", "weights",
                                   "color_count", "verdict")
    assert ConstructionReport._fields == ("n", "case", "graph", "certificate",
                                          "closed_forms")


def test_validating_records_check_keyword_and_positional_calls():
    with pytest.raises(ValueError, match="node_budget"):
        SearchConfig(None, 0)
    with pytest.raises(TypeError):
        SearchConfig(None, None, 1)  # a third field no longer exists
    with pytest.raises(ValueError, match="time_budget"):
        SearchConfig(time_budget=0)
    with pytest.raises(ValueError, match="exact value exceeds upper"):
        BoundReport("kn-k1", 3, 1, 5, 5, 6, "kn-k1-exact")


# every public entry that takes a family parameter or the node budget, with
# the least value the rule admits: (id, call of the one parameter, least)
_INT_PARAMETERS = [
    ("lb_friendship-n", lambda x: antimagic.lb_friendship(x, 1), 2),
    ("lb_friendship-m", lambda x: antimagic.lb_friendship(2, x), 1),
    ("lb_fan-n", lambda x: antimagic.lb_fan(x, 1), 3),
    ("lb_fan-m", lambda x: antimagic.lb_fan(3, x), 1),
    ("known_exact_c3_corona", antimagic.known_exact_c3_corona, 1),
    ("known_exact_kn_k1", antimagic.known_exact_kn_k1, 2),
    ("friendship_witnesses-n",
     lambda x: antimagic.friendship_witnesses(x, 1), 2),
    ("friendship_witnesses-m",
     lambda x: antimagic.friendship_witnesses(2, x), 1),
    ("fan_witnesses-n", lambda x: antimagic.fan_witnesses(x, 1), 3),
    ("fan_witnesses-m", lambda x: antimagic.fan_witnesses(3, x), 1),
    ("bound_report-friendship-n",
     lambda x: bound_report("friendship-corona", x, 1), 2),
    ("bound_report-friendship-m",
     lambda x: bound_report("friendship-corona", 2, x), 1),
    ("bound_report-fan-n", lambda x: bound_report("fan-corona", x, 1), 3),
    ("bound_report-fan-m", lambda x: bound_report("fan-corona", 3, x), 1),
    ("bound_report-c3-n", lambda x: bound_report("c3-corona", x, 2), 3),
    ("bound_report-c3-m", lambda x: bound_report("c3-corona", 3, x), 1),
    ("bound_report-kn-k1-n", lambda x: bound_report("kn-k1", x, 1), 2),
    ("bound_report-kn-k1-m", lambda x: bound_report("kn-k1", 4, x), 1),
    ("construct", construct, 2),
    ("construct_small", antimagic.construct_small, 2),
    ("odd_matrices", lambda x: antimagic.construction.odd_matrices(x), 3),
    ("even_matrices", lambda x: antimagic.construction.even_matrices(x), 6),
    ("chi_la_friendship_o1", antimagic.chi_la_friendship_o1, 2),
    ("friendship", antimagic.friendship, 2),
    ("fan", antimagic.fan, 2),
    ("null_graph", antimagic.null_graph, 1),
    ("cycle", antimagic.cycle, 3),
    ("path", antimagic.path, 1),
    ("complete", antimagic.complete, 1),
    ("SearchConfig-node_budget", lambda x: SearchConfig(node_budget=x), 1),
]


def _numbers(x):
    """Every number in a result, through records, containers and graphs;
    bools (a witness's ``holds``) are not numbers here."""
    if isinstance(x, antimagic.Graph):
        yield from _numbers((x.p, x.q, x.edges))
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _numbers(item)
    elif isinstance(x, dict):
        yield from _numbers(list(x.values()))
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        yield x


@pytest.mark.parametrize("call, least", [(c, s) for _, c, s in
                                         _INT_PARAMETERS],
                         ids=[name for name, _, _ in _INT_PARAMETERS])
def test_integer_parameters_follow_one_rule(call, least):
    # 2.0 == 2 and True == 1 in Python: only the type check refuses them,
    # and float(least), as 3.0 for the n that c3-corona fixes
    for bad in (2.0, True, "2", least - 1, float(least)):
        with pytest.raises(ValueError):
            call(bad)
    numbers = list(_numbers(call(least)))
    assert numbers and all(type(x) is int for x in numbers)


def test_relabeled_corona_solve_is_seeded_in_a_fresh_process(tmp_path):
    """On a permuted f_3 o O_1, every k >= 2n+3 = 9 is answered by the
    construction with 0 nodes, though the solver imports it lazily."""
    g = relabeled(friendship_corona(3, 1), seed=11)
    path = tmp_path / "permuted.json"
    path.write_text(json.dumps(g.to_doc()))
    script = ("import json, sys\n"
              "from antimagic import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, 'antimagic.construction' in "
              "sys.modules, 'antimagic.bounds' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = tmp_path / "out.json"
    for k in (9, 12, g.p):
        argv = ["solve", str(path), "--target-colors", str(k),
                "--cache-dir", str(tmp_path / f"cache-{k}"), "--out", str(out)]
        run = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(run.stdout) == [EXIT_OK, True, False]
        doc = json.loads(out.read_text())
        assert doc["status"] == "feasible" and doc["nodes_explored"] == 0
        assert doc["certificate"]["color_count"] == 9


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 3


@pytest.mark.parametrize("offset, block", README_BLOCKS, ids=[
    f"block-{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_blocks_run_as_doctests(offset, block):
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md",
                                               "README.md", offset)
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    result = runner.run(test, out=report.append)
    assert result.attempted and not result.failed, "".join(report)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the sh block under "## CLI", each command run through cli.main in a
    # fresh working directory with the default cache
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", README,
                      re.M | re.S).group(1)
    commands = [shlex.split(line.split("#")[0])
                for line in block.splitlines() if line.strip()]
    assert commands and all(cmd[0] == "antimagic" for cmd in commands)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ANTIMAGIC_CACHE_DIR", raising=False)
    for cmd in commands:
        assert main(cmd[1:]) == EXIT_OK, cmd
    capsys.readouterr()
    for name in ("f2.cert.json", "sweep.csv", "f2.dot"):
        assert (tmp_path / name).is_file(), name

