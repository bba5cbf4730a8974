"""End-to-end command line flows run in process via cli.main()."""

import argparse
import csv
import datetime
import itertools
import json
import os
import subprocess
import sys

import pytest

import antimagic
from antimagic import graphs, jsonio, solver
from antimagic.cli import (CACHE_ENV, EXIT_BUDGET, EXIT_OK, EXIT_USAGE,
                           EXIT_VERIFY, build_parser, main)
from antimagic.construction import certificate_for
from antimagic.graphs import (Graph, corona, cycle, friendship_corona,
                              null_graph)
from antimagic.labeling import (Certificate, make_certificate,
                                verify_certificate)
from antimagic.solver import exact_chi_la
from conftest import relabeled


def run(args):
    return main(list(args))


def read(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _default_cache(tmp_path, monkeypatch):
    """A call without --cache-dir caches in the test's own directory, not in
    the working directory."""
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env-cache"))


@pytest.fixture()
def f2_file(tmp_path):
    out = tmp_path / "f2.json"
    assert run(["gen", "friendship-corona", "--n", "2", "--m", "1",
                "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture()
def c3_file(tmp_path):
    out = tmp_path / "c3.json"
    assert run(["gen", "c3-corona", "--m", "1", "--out", str(out)]) == EXIT_OK
    return out


def test_gen_writes_graph_doc(f2_file):
    doc = read(f2_file)
    g = Graph.from_doc(doc)
    assert g == friendship_corona(2, 1)
    assert doc["p"] == 10 and len(doc["edges"]) == 11


@pytest.mark.parametrize("family, flags, expected", [
    ("friendship-corona", ["--n", "3", "--m", "2"],
     graphs.friendship_corona(3, 2)),
    ("fan-corona", ["--n", "4", "--m", "1"], graphs.fan_corona(4, 1)),
    ("c3-corona", ["--m", "2"],
     graphs.corona(graphs.cycle(3), graphs.null_graph(2))),
    ("kn-k1", ["--n", "4"],
     graphs.corona(graphs.complete(4), graphs.complete(1))),
    ("friendship", ["--n", "3"], graphs.friendship(3)),
    ("fan", ["--n", "3"], graphs.fan(3)),
    ("cycle", ["--n", "5"], graphs.cycle(5)),
    ("path", ["--n", "4"], graphs.path(4)),
    ("complete", ["--n", "4"], graphs.complete(4)),
    ("null", ["--n", "3"], graphs.null_graph(3)),
])
def test_gen_builds_every_family(tmp_path, family, flags, expected):
    out = tmp_path / "g.json"
    assert run(["gen", family, *flags, "--out", str(out)]) == EXIT_OK
    assert read(out) == expected.to_doc()


def test_gen_requires_n(capsys):
    assert run(["gen", "friendship-corona", "--m", "1"]) == EXIT_USAGE
    assert "requires --n" in capsys.readouterr().err
    assert run(["gen", "c3-corona"]) == EXIT_USAGE
    assert "requires --m" in capsys.readouterr().err


@pytest.mark.parametrize("family, flags, message", [
    ("cycle", ["--n", "5", "--m", "3"], "does not read --m"),
    ("kn-k1", ["--n", "3", "--m", "7"], "got --m 7"),
    ("c3-corona", ["--n", "4", "--m", "2"], "got --n 4")],
    ids=["cycle-m3", "kn-k1-m7", "c3-corona-n4"])
def test_gen_refuses_flags_the_family_does_not_take(family, flags, message,
                                                    tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["gen", family, *flags, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("family, flags, fixed", [
    ("kn-k1", ["--n", "3"], ["--m", "1"]),
    ("c3-corona", ["--m", "2"], ["--n", "3"])])
def test_gen_accepts_the_fixed_value(family, flags, fixed, tmp_path):
    plain, given = tmp_path / "plain.json", tmp_path / "given.json"
    assert run(["gen", family, *flags, "--out", str(plain)]) == EXIT_OK
    assert run(["gen", family, *flags, *fixed,
                "--out", str(given)]) == EXIT_OK
    assert given.read_text() == plain.read_text()


def test_unknown_family_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["gen", "petersen", "--n", "5"])
    assert exc.value.code == 2


# each subcommand's help line and a typical call of it
SUBCOMMANDS = {
    "gen": ("generate a graph family instance",
            ["friendship-corona", "--n", "3", "--m", "1", "--out", "g.json"]),
    "label": ("produce a verified certificate",
              ["g.json", "--target-colors", "7", "--node-budget", "100",
               "--cache-dir", "c"]),
    "verify": ("check a labeling or certificate",
               ["g.json", "cert.json", "--out", "v.json"]),
    "solve": ("exact search for the optimum",
              ["g.json", "--time-budget", "2.5", "--cache-dir", "c"]),
    "bounds": ("closed-form bound report",
               ["--family", "fan-corona", "--n", "4"]),
    "sweep": ("evaluate bound inequalities over a grid",
              ["fan", "--n-max", "9", "--format", "json"]),
    "export-dot": ("write Graphviz DOT",
                   ["g.json", "--certificate", "cert.json"]),
}
USAGE = ("usage: antimagic [-h] {gen,label,verify,solve,bounds,sweep,"
         "export-dot} ...\n")


def _exit_text(capsys, parse):
    """The exit code and the standard output and error of a parse that
    exits."""
    with pytest.raises(SystemExit) as exc:
        parse()
    return (exc.value.code, *capsys.readouterr())


def test_top_level_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_text(capsys, lambda: run(["-h"]))
    assert code == 0 and err == "" and out.startswith(USAGE)
    listed = [line.split(None, 1) for line in out.splitlines()
              if line.startswith("    ")]
    assert listed == [[name, help_line]
                      for name, (help_line, _argv) in SUBCOMMANDS.items()]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "),
    (["-x"], "the following arguments are required: command"),
], ids=["no-argument", "unknown-command", "unknown-option"])
def test_usage_error_names_every_subcommand(capsys, monkeypatch, argv,
                                            message):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_text(capsys, lambda: run(argv))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(USAGE + "antimagic: error: " + message)


def test_unrecognised_argument_after_a_subcommand_names_every_subcommand(
        c3_file, capsys, monkeypatch):
    # parsed with the solve subparser alone, reported in the top-level usage
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_text(
        capsys, lambda: run(["solve", str(c3_file), "--bogus"]))
    assert code == EXIT_USAGE and out == ""
    assert err == USAGE + "antimagic: error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_one_subcommand_parser_parses_as_the_full_one(command, capsys):
    argv = [command, *SUBCOMMANDS[command][1]]
    one, full = build_parser(command), build_parser()
    assert one.parse_args(argv) == full.parse_args(argv)
    assert (_exit_text(capsys, lambda: one.parse_args([command, "-h"]))
            == _exit_text(capsys, lambda: full.parse_args([command, "-h"])))


def test_parser_for_a_subcommand_builds_that_one_alone():
    def built(parser):
        sub, = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
        return list(sub.choices)

    assert built(build_parser("solve")) == ["solve"]
    assert built(build_parser()) == built(build_parser("nosuch")) \
        == list(SUBCOMMANDS)


def test_label_construction(f2_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(["label", str(f2_file), "--out", str(cert_path)]) == EXIT_OK
    cert = read(cert_path)
    assert cert["color_count"] == 7
    assert cert["verdict"] == "local-antimagic"
    assert run(["verify", str(f2_file), str(cert_path)]) == EXIT_OK


@pytest.mark.parametrize("flag", [["--time-budget", "1e-9"],
                                  ["--node-budget", "1"],
                                  ["--cache-dir", "cache"]],
                         ids=lambda flag: flag[0])
def test_label_construction_ignores_budget_flags(f2_file, tmp_path, flag,
                                                 capsys, monkeypatch):
    # the construction's labeling and the bound on the empty labeling answer
    # before any budget is checked, so no budget changes the certificate;
    # each answer is cached, in --cache-dir when it is given
    monkeypatch.chdir(tmp_path)
    assert run(["label", str(f2_file), "--cache-dir", "plain"]) == EXIT_OK
    plain = capsys.readouterr().out
    assert run(["label", str(f2_file), *flag]) == EXIT_OK
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["color_count"] == 7
    flagged = flag[1] if flag[0] == "--cache-dir" else "env-cache"
    for cache in ("plain", flagged):
        assert (tmp_path / cache / "cache.jsonl").read_text().count("\n") == 1


def test_label_target_on_friendship_o1_goes_to_the_solver(f2_file, tmp_path):
    # a target is a solver query: the construction seeds it with 0 nodes,
    # and the answer is cached
    cache = tmp_path / "cache"
    cert_path = tmp_path / "cert.json"
    assert run(["label", str(f2_file), "--target-colors", "7",
                "--cache-dir", str(cache), "--out", str(cert_path)]) == EXIT_OK
    assert read(cert_path)["color_count"] == 7
    assert (cache / "cache.jsonl").read_text().count("\n") == 1


def test_label_construction_ignores_vertex_roles(tmp_path):
    g = friendship_corona(3, 1)
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(Graph(g.p, g.edges).to_doc()))
    cert_path = tmp_path / "cert.json"
    assert run(["label", str(plain), "--out", str(cert_path)]) == EXIT_OK
    assert read(cert_path)["color_count"] == 9
    assert run(["verify", str(plain), str(cert_path)]) == EXIT_OK


def test_label_construction_accepts_any_numbering(tmp_path):
    g = relabeled(friendship_corona(2, 1), seed=7)
    path = tmp_path / "permuted.json"
    path.write_text(json.dumps(g.to_doc()))
    cert_path = tmp_path / "cert.json"
    assert run(["label", str(path), "--out", str(cert_path)]) == EXIT_OK
    assert read(cert_path)["color_count"] == 7
    assert run(["verify", str(path), str(cert_path)]) == EXIT_OK


def test_label_construction_rejects_other_graphs(tmp_path):
    # the order, size and degrees of friendship_corona(2, 1), but no
    # triangle: the construction turns it away, so the solver answers it by
    # a search, with no seed, and caches the answer as it caches every one
    g = Graph(10, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 4), (2, 4),
                   (3, 4), (1, 7), (2, 8), (3, 9)])
    assert certificate_for(g) is None
    path = tmp_path / "lookalike.json"
    path.write_text(json.dumps(g.to_doc()))
    cache = tmp_path / "cache"
    cert_path = tmp_path / "cert.json"
    assert run(["label", str(path), "--cache-dir", str(cache),
                "--out", str(cert_path)]) == EXIT_OK
    assert read(cert_path)["color_count"] == 7
    assert run(["verify", str(path), str(cert_path)]) == EXIT_OK
    assert (cache / "cache.jsonl").read_text().count("\n") == 1


# modules a solve of a graph that is not a friendship corona never runs, so
# its process must not load them
UNUSED_BY_SOLVE = ("dataclasses", "inspect", "datetime", "csv",
                   "concurrent.futures", "antimagic.bounds",
                   "antimagic.construction")


def _run_fresh(unused, argv):
    """cli.main(argv) in a new process: its exit code and the modules of
    ``unused`` that it loaded."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(antimagic.__file__)))
    script = ("import json, sys\n"
              "from antimagic import cli\n"
              "code = cli.main(sys.argv[2:])\n"
              "print(json.dumps([code, [m for m in json.loads(sys.argv[1]) "
              "if m in sys.modules]]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(unused), *argv],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_solve_process_loads_only_what_it_runs(c3_file, tmp_path):
    out = tmp_path / "o.json"
    argv = ["solve", str(c3_file), "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    # a cold solve, then a cache hit, which does not load the solver either
    for cached, unused in ((False, UNUSED_BY_SOLVE),
                           (True, UNUSED_BY_SOLVE + ("antimagic.solver",
                                                     "fcntl"))):
        assert _run_fresh(unused, argv) == [EXIT_OK, []]
        assert read(out)["chi"] == 5
        assert read(out).get("cached", False) is cached
    # a budget the cache would answer is refused all the same, and the
    # refusal does not load the solver
    assert _run_fresh(UNUSED_BY_SOLVE + ("antimagic.solver", "fcntl"),
                      [*argv, "--node-budget", "0"]) == [EXIT_USAGE, []]


def test_label_process_caches_the_construction(tmp_path):
    # a relabeled copy of f2oO1, no target: the construction's certificate
    # on the file's own numbering, cached as solve caches it; a second label
    # is a cache hit, which loads neither the solver nor the construction
    g = relabeled(friendship_corona(2, 1), seed=3)
    path = tmp_path / "permuted.json"
    path.write_text(json.dumps(g.to_doc()))
    out = tmp_path / "cert.json"
    cache = tmp_path / "cache"
    argv = ["label", str(path), "--cache-dir", str(cache), "--out", str(out)]
    unused = ("antimagic.bounds", "concurrent.futures")
    for hit in (unused, unused + ("antimagic.solver",
                                  "antimagic.construction", "fcntl")):
        assert _run_fresh(hit, argv) == [EXIT_OK, []]
        assert read(out) == certificate_for(g).to_doc()
        assert (cache / "cache.jsonl").read_text().count("\n") == 1


@pytest.mark.parametrize("n", [2, 3])
def test_label_and_solve_agree_on_friendship_o1(n, tmp_path):
    g_file = tmp_path / "g.json"
    assert run(["gen", "friendship-corona", "--n", str(n), "--m", "1",
                "--out", str(g_file)]) == EXIT_OK
    docs = {}
    for command in ("label", "solve"):
        docs[command] = tmp_path / f"{command}.json"
        assert run([command, str(g_file), "--cache-dir",
                    str(tmp_path / command), "--out",
                    str(docs[command])]) == EXIT_OK
    solved = read(docs["solve"])
    assert solved["status"] == "exact" and solved["chi"] == 2 * n + 3
    assert solved["nodes_explored"] == 0
    assert read(docs["label"]) == solved["certificate"]


@pytest.mark.parametrize("command", ["solve", "label"])
@pytest.mark.parametrize("flag", [["--edge-order", "input"],
                                  ["--no-symmetry"],
                                  ["--method", "solver"],
                                  ["--parallel", "2"]])
def test_removed_solver_flags_are_rejected(c3_file, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([command, str(c3_file), *flag])
    assert exc.value.code == 2


def test_label_solver(c3_file, tmp_path):
    # C3oO1 is no friendship corona: label solves it, as solve does
    cache = tmp_path / "cache"
    cert_path = tmp_path / "cert.json"
    assert run(["label", str(c3_file), "--cache-dir", str(cache),
                "--out", str(cert_path)]) == EXIT_OK
    assert read(cert_path)["color_count"] == 5
    assert run(["verify", str(c3_file), str(cert_path)]) == EXIT_OK
    assert (cache / "cache.jsonl").exists()


def test_label_solver_infeasible_target_is_a_domain_error(c3_file, tmp_path,
                                                         capsys):
    # C3oO1 has chi = 5: no certificate with 4 colours exists to write, both
    # when the search proves it and when a cached chi answers
    cache = tmp_path / "cache"
    label = ["label", str(c3_file), "--cache-dir", str(cache),
             "--target-colors", "4"]
    assert run(label) == EXIT_USAGE
    assert not (cache / "cache.jsonl").exists()
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(tmp_path / "o.json")]) == EXIT_OK
    capsys.readouterr()
    assert run(label) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "4 colours" in err


def test_label_solver_budget_exhaustion(tmp_path):
    # F3oO2's proof of 10 takes 100,960 nodes (F4oO1's proof of 7, used
    # before, now closes at the root)
    f3_file = tmp_path / "f3.json"
    assert run(["gen", "fan-corona", "--n", "3", "--m", "2",
                "--out", str(f3_file)]) == EXIT_OK
    assert run(["label", str(f3_file), "--target-colors", "10",
                "--node-budget", "10", "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "o.json")]) == EXIT_BUDGET


def test_budget_exhausted_answer_names_its_best_so_far(tmp_path):
    # within 2,000 nodes F3oO2's exact descent finds 12 colours, not 10
    f3_file = tmp_path / "f3.json"
    assert run(["gen", "fan-corona", "--n", "3", "--m", "2",
                "--out", str(f3_file)]) == EXIT_OK
    cache = tmp_path / "cache"
    docs = []
    for command in ("solve", "label"):
        out = tmp_path / f"{command}.json"
        assert run([command, str(f3_file), "--node-budget", "2000",
                    "--cache-dir", str(cache),
                    "--out", str(out)]) == EXIT_BUDGET
        doc = read(out)
        del doc["wall_time"]
        docs.append(doc)
    assert docs[0] == docs[1] == {"status": "budget-exhausted",
                                  "best_so_far_colors": 12,
                                  "nodes_explored": 2001}
    assert not (cache / "cache.jsonl").exists()


def test_cache_record_is_stamped_in_iso_utc(c3_file, tmp_path):
    cache = tmp_path / "cache"
    before = datetime.datetime.now(datetime.timezone.utc)
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(tmp_path / "o.json")]) == EXIT_OK
    after = datetime.datetime.now(datetime.timezone.utc)
    record = json.loads((cache / "cache.jsonl").read_text())
    created = datetime.datetime.fromisoformat(record["created"])
    assert record["created"].endswith("+00:00")
    assert before - datetime.timedelta(seconds=1) <= created <= after


def test_solve_and_cache_round_trip(c3_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    first = tmp_path / "first.json"
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(first)]) == EXIT_OK
    doc = read(first)
    assert doc["status"] == "exact" and doc["chi"] == 5
    assert "cached" not in doc
    assert (cache / "cache.jsonl").exists()

    second = tmp_path / "second.json"
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(second)]) == EXIT_OK
    doc2 = read(second)
    assert doc2["cached"] is True and doc2["chi"] == 5
    assert [f.name for f in cache.iterdir()] == ["cache.jsonl"]

    # a cached exact answer also settles feasibility queries
    third = tmp_path / "third.json"
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--target-colors", "4", "--out", str(third)]) == EXIT_OK
    assert read(third) == {"status": "infeasible", "infeasible_k": 4,
                           "cached": True}


def test_out_of_range_target_is_refused_whatever_the_cache(c3_file, tmp_path,
                                                           capsys):
    # C3oO1 has p = 6: k = 1 and k = 99 are usage errors, cached or not
    cache = tmp_path / "cache"

    def refused():
        for k in ("1", "99"):
            assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                        "--target-colors", k]) == EXIT_USAGE
            assert "k must be in 2..6" in capsys.readouterr().err

    refused()
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(tmp_path / "o.json")]) == EXIT_OK
    assert (cache / "cache.jsonl").read_text().count("\n") == 1
    refused()


@pytest.mark.parametrize("command", ["solve", "label"])
@pytest.mark.parametrize("target", [[], ["--target-colors", "2"]],
                         ids=["exact", "target-2"])
def test_graph_the_solver_refuses_is_named_before_k(tmp_path, capsys, command,
                                                    target):
    # K1 has one vertex and no edge: refused for its size, with or without
    # a target, not for the empty range 2..1 of k; 2K2, two disjoint edges,
    # for not being connected.  Both before the cache is read or created.
    cache = tmp_path / "cache"
    for g, message in [
            (graphs.complete(1), "need a graph with at least 2 edges"),
            (Graph(4, [(0, 1), (2, 3)]), "need a connected graph")]:
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_doc()))
        assert run([command, str(path), "--cache-dir", str(cache),
                    *target]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not cache.exists()


@pytest.mark.parametrize("flag", [["--node-budget", "-5"],
                                  ["--node-budget", "0"],
                                  ["--time-budget", "-1"],
                                  ["--time-budget", "0"],
                                  ["--time-budget", "nan"]],
                         ids=lambda flag: flag[0] + flag[1])
def test_non_positive_budget_is_refused_whatever_the_cache(c3_file, tmp_path,
                                                           capsys, flag):
    cache = tmp_path / "cache"
    solve = ["solve", str(c3_file), "--cache-dir", str(cache)]
    field = flag[0][2:].replace("-", "_")

    def refused():
        assert run([*solve, *flag]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {field} must be positive\n"

    refused()  # a miss, which would search and create the cache
    assert not cache.exists()
    assert run([*solve, "--out", str(tmp_path / "o.json")]) == EXIT_OK
    refused()  # a hit, which searches nothing


def test_cache_env_var(c3_file, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("ANTIMAGIC_CACHE_DIR", str(cache))
    out = tmp_path / "o.json"
    assert run(["solve", str(c3_file), "--out", str(out)]) == EXIT_OK
    assert (cache / "cache.jsonl").exists()
    # explicit flag wins over the environment
    flag_cache = tmp_path / "flagcache"
    assert run(["solve", str(c3_file), "--cache-dir", str(flag_cache),
                "--out", str(out)]) == EXIT_OK
    assert (flag_cache / "cache.jsonl").exists()


# index lines the lookup must skip; the last four hold the graph's hash, so
# they pass the hash filter and reach the parse and the object check
@pytest.mark.parametrize("line", ["{not json", "null", "[]", "42",
                                  '{"graph_hash": "HASH"', '"HASH"',
                                  '["HASH"]', '[{"graph_hash": "HASH"}]'],
                         ids=["torn", "null", "list", "number", "torn-hash",
                              "string-hash", "list-hash", "record-in-list"])
def test_corrupt_cache_line_is_skipped(c3_file, tmp_path, line):
    cache = tmp_path / "cache"
    out = tmp_path / "o.json"
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    key = Graph.from_doc(read(c3_file)).content_hash()
    with open(cache / "cache.jsonl", "a") as fh:
        fh.write(line.replace("HASH", key) + "\n")
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    assert read(out)["cached"] is True


def test_cache_rejects_record_disagreeing_with_certificate(c3_file, tmp_path):
    # an exact answer paired with a valid certificate that has more colours
    g = Graph.from_doc(read(c3_file))
    certs = (make_certificate(g, list(labels))
             for labels in itertools.permutations(range(1, g.q + 1)))
    cert = next(c for c in certs if c.verdict.ok and c.color_count > 5)
    cache = tmp_path / "cache"
    cache.mkdir()
    record = jsonio.stamp({"graph_hash": g.content_hash(), "family": None,
                           "exact": 5, "certificate": cert.to_doc()})
    (cache / "cache.jsonl").write_text(json.dumps(record) + "\n")
    out = tmp_path / "o.json"
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    doc = read(out)
    assert "cached" not in doc
    assert doc["chi"] == doc["certificate"]["color_count"] == 5
    # the true certificate, but a chi of 5.0: equal to 5, yet not an int
    record.update(exact=5.0, certificate=doc["certificate"])
    with open(cache / "cache.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    doc = read(out)
    assert "cached" not in doc
    assert type(doc["chi"]) is int and doc["chi"] == 5


def _swap_first_and_last(doc):
    labels = doc["labels"]
    labels[0], labels[-1] = labels[-1], labels[0]  # weights left as stored


@pytest.mark.parametrize("spoil", [
    _swap_first_and_last,
    lambda doc: doc.pop("weights"),
    lambda doc: doc.update(labels="1 2 3 4 5 6"),
    lambda doc: doc.update(weights=list(map(float, doc["weights"]))),
], ids=["swapped-labels", "no-weights", "labels-a-string", "float-weights"])
def test_cached_certificate_that_fails_to_reverify_is_a_miss(c3_file, tmp_path,
                                                            spoil):
    g = Graph.from_doc(read(c3_file))
    cert_doc = exact_chi_la(g).certificate.to_doc()
    spoil(cert_doc)
    if spoil is _swap_first_and_last:
        # the swap changes the weights, so only re-verification catches it
        assert list(make_certificate(g, cert_doc["labels"]).weights) != \
            cert_doc["weights"]
    cache = tmp_path / "cache"
    cache.mkdir()
    record = jsonio.stamp({"graph_hash": g.content_hash(), "family": None,
                           "exact": 5, "certificate": cert_doc})
    (cache / "cache.jsonl").write_text(json.dumps(record) + "\n")
    out = tmp_path / "o.json"
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    doc = read(out)
    assert "cached" not in doc
    assert doc["chi"] == doc["certificate"]["color_count"] == 5


def test_cache_ignores_certificate_file_records(c3_file, tmp_path):
    # an older cache kept each certificate in a file the record named
    g = Graph.from_doc(read(c3_file))
    cert = exact_chi_la(g).certificate
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "old.cert.json").write_text(json.dumps(cert.to_doc()))
    record = jsonio.stamp({"graph_hash": g.content_hash(), "family": None,
                           "upper": 5, "exact": 5,
                           "certificate": "old.cert.json"})
    (cache / "cache.jsonl").write_text(json.dumps(record) + "\n")
    out = tmp_path / "o.json"
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    assert "cached" not in read(out)
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    assert read(out)["cached"] is True


def test_feasibility_answer_is_reused(c3_file, tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "o.json"
    docs = []
    for _ in range(3):
        assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                    "--target-colors", "6", "--out", str(out)]) == EXIT_OK
        docs.append(read(out))
    assert [d["status"] for d in docs] == ["feasible"] * 3
    assert "cached" not in docs[0]
    assert docs[1]["cached"] is True and docs[2]["cached"] is True
    assert docs[1]["certificate"] == docs[0]["certificate"]
    index = (cache / "cache.jsonl").read_text().splitlines()
    assert len(index) == 1
    # a feasibility answer settles no exact query
    assert run(["solve", str(c3_file), "--cache-dir", str(cache),
                "--out", str(out)]) == EXIT_OK
    assert "cached" not in read(out) and read(out)["chi"] == 5


def test_concurrent_solves_share_one_cache(c3_file, tmp_path):
    c5_file = tmp_path / "c5.json"
    assert run(["gen", "cycle", "--n", "5", "--out", str(c5_file)]) == EXIT_OK
    chi = {c3_file: 5, c5_file: 3}
    cache = tmp_path / "cache"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(antimagic.__file__)))
    procs = [subprocess.Popen([sys.executable, "-m", "antimagic.cli", "solve",
                               str(path), "--cache-dir", str(cache)],
                              env=env, stdout=subprocess.DEVNULL)
             for path in (c3_file, c5_file, c3_file, c5_file)]
    assert [proc.wait(timeout=120) for proc in procs] == [EXIT_OK] * 4
    lines = (cache / "cache.jsonl").read_text().splitlines()
    assert 2 <= len(lines) <= 4
    for line in lines:
        assert isinstance(json.loads(line), dict)
    out = tmp_path / "o.json"
    for path, value in chi.items():
        assert run(["solve", str(path), "--cache-dir", str(cache),
                    "--out", str(out)]) == EXIT_OK
        doc = read(out)
        assert doc["cached"] is True and doc["chi"] == value
        cert = Certificate.from_doc(doc["certificate"])
        assert verify_certificate(cert, Graph.from_doc(read(path)))
        assert cert.color_count == value


def test_solve_budget_exhaustion(tmp_path):
    # f2oO1 closes with 0 nodes; F4oO1's exact solve takes 394
    f4_file = tmp_path / "f4.json"
    assert run(["gen", "fan-corona", "--n", "4", "--m", "1",
                "--out", str(f4_file)]) == EXIT_OK
    out = tmp_path / "o.json"
    code = run(["solve", str(f4_file), "--node-budget", "10",
                "--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
    assert code == EXIT_BUDGET
    assert read(out)["status"] == "budget-exhausted"


def test_closed_stdout_pipe_exits_quietly():
    # as ``antimagic sweep fan | head -1``: the reader closes the pipe after
    # one line, while the CSV, far larger than a pipe buffer, is being written
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(antimagic.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "antimagic.cli", "sweep",
                             "fan"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"name,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


@pytest.mark.parametrize("case", ["cache-dir-is-a-file", "out-is-a-directory",
                                  "labeling-is-a-directory"])
def test_unusable_path_is_a_usage_error(c3_file, tmp_path, capsys, case):
    # a path that cannot be read or written exits 2 with an error: line, not
    # with a traceback and the exit code of a closed standard output
    a_file, a_dir = tmp_path / "a-file", tmp_path / "a-dir"
    a_file.write_text("")
    a_dir.mkdir()
    args = {"cache-dir-is-a-file": ["solve", str(c3_file),
                                    "--cache-dir", str(a_file)],
            "out-is-a-directory": ["gen", "cycle", "--n", "5",
                                   "--out", str(a_dir)],
            "labeling-is-a-directory": ["verify", str(c3_file),
                                        str(a_dir)]}[case]
    assert run(args) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "label"])
def test_unusable_cache_dir_is_refused_before_the_search(tmp_path, capsys,
                                                         monkeypatch, command):
    # F3oO2 searches for most of a second; a file as --cache-dir must be
    # refused before any of it
    def refuse(*args, **kwargs):
        raise AssertionError("searched before checking the cache directory")

    monkeypatch.setattr(solver, "exact_chi_la", refuse)
    path = tmp_path / "f3o2.json"
    assert run(["gen", "fan-corona", "--n", "3", "--m", "2",
                "--out", str(path)]) == EXIT_OK
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    assert run([command, str(path), "--cache-dir", str(a_file),
                "--out", str(tmp_path / "o.json")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert a_file.read_text() == ""


def test_verify_tampered_certificate(f2_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(["label", str(f2_file), "--out", str(cert_path)])
    doc = read(cert_path)
    doc["labels"][0], doc["labels"][1] = doc["labels"][1], doc["labels"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert run(["verify", str(f2_file), str(bad),
                "--out", str(report)]) == EXIT_VERIFY
    assert read(report)["ok"] is False


def test_verify_certificate_with_a_repeated_label(c3_file, tmp_path):
    # the weights are left as stored: the labels are not a bijection, which
    # is a verification failure, not a usage error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_c3_certificate_doc(labels=[2, 2, 3, 1, 4, 6])))
    report = tmp_path / "report.json"
    assert run(["verify", str(c3_file), str(bad),
                "--out", str(report)]) == EXIT_VERIFY
    assert read(report)["ok"] is False


def test_verify_rejects_unknown_certificate_schema(f2_file, tmp_path,
                                                   capsys):
    cert_path = tmp_path / "cert.json"
    run(["label", str(f2_file), "--out", str(cert_path)])
    doc = read(cert_path)
    doc["schema_version"] = 2
    cert_path.write_text(json.dumps(doc))
    assert run(["verify", str(f2_file), str(cert_path)]) == EXIT_USAGE
    assert "schema_version" in capsys.readouterr().err


def test_verify_bare_labeling(c3_file, tmp_path):
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"labels": [1, 2, 3, 4, 5, 6]}))
    report = tmp_path / "report.json"
    code = run(["verify", str(c3_file), str(lab), "--out", str(report)])
    doc = read(report)
    assert doc["kind"] == "labeling"
    assert code == (EXIT_OK if doc["ok"] else EXIT_VERIFY)
    assert (doc["verdict"] == "local-antimagic") is doc["ok"]


def _c3_certificate_doc(**changes):
    """A 5-colour certificate of C3 o O1, the graph in c3_file, with
    ``changes`` written over its fields."""
    g = corona(cycle(3), null_graph(1))
    return {**make_certificate(g, [2, 5, 3, 1, 4, 6]).to_doc(), **changes}


MALFORMED_DOCS = {
    "list": [1, 2, 3, 4, 5, 6],
    "string": "verdict",
    "number": 7,
    "labels-not-list": {"labels": 5},
    "labels-string": {"labels": "123456"},
    "certificate-labels-not-list": {
        "schema_version": 1, "graph_hash": "", "labels": 5, "weights": [],
        "color_count": 1, "verdict": "local-antimagic"},
    "certificate-hash-null": {
        "schema_version": 1, "graph_hash": None, "labels": [], "weights": [],
        "color_count": 1, "verdict": "local-antimagic"},
    "certificate-hash-number": {
        "schema_version": 1, "graph_hash": 5, "labels": [], "weights": [],
        "color_count": 1, "verdict": "local-antimagic"},
    "certificate-violation-null": {
        "schema_version": 1, "graph_hash": "", "labels": [], "weights": [],
        "color_count": 1, "verdict": {"violation": None}},
    # each equals the true certificate (6.0 == 6 and True == 1 in Python), so
    # only a type check refuses it
    "certificate-weight-float": _c3_certificate_doc(
        weights=[6.0, 11.0, 14.0, 1.0, 4.0, 6.0]),
    "certificate-weight-bool": _c3_certificate_doc(
        weights=[6, 11, 14, True, 4, 6]),
    "certificate-count-float": _c3_certificate_doc(color_count=5.0),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
def test_verify_and_export_dot_refuse_malformed_documents(c3_file, tmp_path,
                                                          capsys, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED_DOCS[name]))
    assert run(["verify", str(c3_file), str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert run(["export-dot", str(c3_file), "--certificate",
                str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("kind, field", [("labeling", "labels"),
                                         ("graph", "roles"),
                                         ("certificate", "graph_hash")])
def test_missing_field_is_named(c3_file, tmp_path, capsys, kind, field):
    g = Graph.from_doc(read(c3_file))
    doc = {"labeling": {"labels": [1, 2, 3, 4, 5, 6]},
           "graph": g.to_doc(),
           "certificate": make_certificate(g, range(1, 7)).to_doc()}[kind]
    del doc[field]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if kind == "graph":
        args = ["solve", str(bad), "--cache-dir", str(tmp_path / "cache")]
    else:
        args = ["verify", str(c3_file), str(bad)]
    assert run(args) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: missing field '{field}'\n"


def test_verify_wrong_graph_is_exit_3(f2_file, c3_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(["label", str(f2_file), "--out", str(cert_path)])
    assert run(["verify", str(c3_file), str(cert_path)]) == EXIT_VERIFY


def test_verify_labeling_for_another_graph_is_exit_3(f2_file, c3_file,
                                                     tmp_path):
    lab = tmp_path / "lab.json"
    f2_hash = Graph.from_doc(read(f2_file)).content_hash()
    lab.write_text(json.dumps({"graph_hash": f2_hash,
                               "labels": [2, 5, 3, 1, 4, 6]}))
    report = tmp_path / "report.json"
    assert run(["verify", str(c3_file), str(lab),
                "--out", str(report)]) == EXIT_VERIFY
    doc = read(report)
    assert doc["ok"] is False and "different graph" in doc["error"]


def test_bounds_command(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bounds", "--family", "friendship-corona", "--n", "3",
                "--m", "1", "--out", str(out)]) == EXIT_OK
    doc = read(out)
    assert doc["exact"] == 9 and doc["provenance"] == "fn-o1-exact"
    assert run(["bounds", "--family", "kn-k1", "--n", "4",
                "--out", str(out)]) == EXIT_OK
    assert read(out)["exact"] == 7


@pytest.mark.parametrize("args, message", [
    (["--family", "kn-k1", "--n", "4", "--m", "5"], "got --m 5"),
    (["--family", "kn-k1", "--n", "4", "--m", "0"], "got --m 0"),
    (["--family", "c3-corona", "--n", "7", "--m", "2"], "got --n 7")],
    ids=["kn-k1-m5", "kn-k1-m0", "c3-corona-n7"])
def test_bounds_rejects_flag_the_family_fixes(args, message, capsys):
    assert run(["bounds", *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_bounds_accepts_the_fixed_value(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bounds", "--family", "kn-k1", "--n", "4", "--m", "1",
                "--out", str(out)]) == EXIT_OK
    assert read(out)["exact"] == 7
    assert run(["bounds", "--family", "c3-corona", "--n", "3", "--m", "2",
                "--out", str(out)]) == EXIT_OK
    doc = read(out)
    assert (doc["n"], doc["m"], doc["exact"]) == (3, 2, 9)


@pytest.mark.parametrize("family", ["friendship-corona", "fan-corona",
                                    "kn-k1"])
def test_bounds_requires_n(family, capsys):
    assert run(["bounds", "--family", family]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"family {family!r} requires --n" in err and "got 0" not in err


@pytest.mark.parametrize("family, n", [("friendship-corona", "3"),
                                       ("fan-corona", "3"),
                                       ("c3-corona", None)])
def test_bounds_rejects_m_zero(family, n, capsys):
    # --m defaults to 1 only when it is absent
    args = ["bounds", "--family", family, "--m", "0"]
    if n is not None:
        args += ["--n", n]
    assert run(args) == EXIT_USAGE
    assert "need m >= 1, got 0" in capsys.readouterr().err


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "friendship", "--n-max", "4", "--m-max", "2",
                "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() >= {"name", "n", "m", "lhs", "rhs", "holds"}
    hub = [r for r in rows
           if r["name"] == "friendship-hub-gap" and r["n"] == "2"
           and r["m"] == "1"]
    assert hub and hub[0]["lhs"] == "30" and hub[0]["holds"] == "True"


def test_sweep_csv_stdout_matches_out_file(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "fan", "--n-max", "6", "--m-max", "3"]
    assert run(args + ["--out", str(out)]) == EXIT_OK
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(antimagic.__file__)))
    proc = subprocess.run([sys.executable, "-m", "antimagic.cli", *args],
                          env=env, capture_output=True, check=True)
    assert proc.stdout == out.read_bytes()
    assert proc.stdout.startswith(b"name,n,m,r,lhs,rhs,holds,relation,")
    assert proc.stdout.count(b"\r\n") == len(proc.stdout.splitlines())


def test_sweep_json_fan(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "fan", "--n-max", "4", "--m-max", "1",
                "--format", "json", "--out", str(out)]) == EXIT_OK
    docs = read(out)
    bad = [(d["n"], d["m"]) for d in docs
           if d["name"] == "fan-light-sum-chain" and not d["holds"]]
    assert bad == [[3, 1]] or bad == [(3, 1)]


def test_export_dot(c3_file, tmp_path):
    out = tmp_path / "g.dot"
    assert run(["export-dot", str(c3_file), "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.startswith("graph") and "0 -- 1" in text


def test_export_dot_with_certificate(f2_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(["label", str(f2_file), "--out", str(cert_path)])
    out = tmp_path / "g.dot"
    assert run(["export-dot", str(f2_file), "--certificate", str(cert_path),
                "--out", str(out)]) == EXIT_OK
    assert "label=" in out.read_text()


def test_export_dot_refuses_a_certificate_that_does_not_verify(
        f2_file, c3_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(["label", str(f2_file), "--out", str(cert_path)])
    doc = read(cert_path)
    _swap_first_and_last(doc)
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(doc))
    assert run(["export-dot", str(f2_file), "--certificate",
                str(swapped)]) == EXIT_VERIFY
    assert capsys.readouterr().err == ("error: certificate does not verify "
                                       "against this graph\n")
    assert run(["export-dot", str(c3_file), "--certificate",
                str(cert_path)]) == EXIT_VERIFY
    assert capsys.readouterr().err.startswith("error: certificate is for "
                                              "graph ")


def test_missing_file_is_usage_error(capsys):
    assert run(["solve", "/nonexistent/g.json"]) == EXIT_USAGE


def test_graph_file_that_is_not_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    assert run(["solve", str(path), "--cache-dir",
                str(tmp_path / "cache")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON (")


def _c3_doc(**fields):
    """A triangle's graph document with some fields replaced."""
    doc = Graph(3, [(0, 1), (1, 2), (0, 2)]).to_doc()
    doc.update(fields)
    return doc


# each message names the field that refused the document; the graph with
# "q": true has one edge, which solve would refuse too, but only after it
@pytest.mark.parametrize("doc, message", [
    ([1, 2], "graph document is not a JSON object"),
    (_c3_doc(roles=[0, 1, 2]), "vertex role 0 is not an object"),
    (_c3_doc(edges=[[0.0, 1], [1, 2], [0, 2]]),
     "vertex id 0.0 is not an integer"),
    (_c3_doc(edges=[["0", 1], [1, 2], [0, 2]]),
     "vertex id '0' is not an integer"),
    (_c3_doc(p="3"), "graph order '3' is not an integer"),
    (_c3_doc(edges=[[False, True], [1, 2], [0, 2]]),
     "vertex id False is not an integer"),
    # 3.0 == 3 and True == 1 in Python, so only a type check refuses these
    (_c3_doc(q=3.0), "graph size 3.0 is not an integer"),
    ({**Graph(2, [(0, 1)]).to_doc(), "q": True},
     "graph size True is not an integer"),
    (_c3_doc(family=5), "graph family 5 is not a string"),
], ids=["list", "int-roles", "float-id", "str-id", "str-p", "bool-ids",
        "q-float", "q-bool", "family-int"])
def test_malformed_graph_file_is_usage_error(doc, message, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--cache-dir",
                str(tmp_path / "cache")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
