"""tools/bench_pairs.py: result-line parsing, the paired summary and the
commit and working-tree exports (no benchmark is run)."""

import importlib.util
import json
import subprocess
import warnings
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BOUNDS = {"setup_s": 0.25, "pass_s": 0.25, "peak_rss_mb": 0.05}


def _stdout(pass_s, rss, failed=0, attempted=8):
    report = json.dumps({"report": {"workload": {"passes": 3}}})
    result = json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"setup_s": {"value": 0.001, "unit": "s"},
                    "pass_s": {"value": pass_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})
    return f"{report}\n{result}\n\n"


def test_parse_result_reads_the_last_line():
    out = bench_pairs.parse_result(_stdout(0.5, 23.5, failed=1))
    assert out == {"correct": False, "attempted": 8, "failed": 1,
                   "metrics": {"setup_s": 0.001, "pass_s": 0.5,
                               "peak_rss_mb": 23.5}}


def test_parse_result_rejects_empty_output():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")


def test_read_bounds_takes_the_end_to_end_metrics(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": name, "unit": "s", "better": "lower",
                        "bound": bound} for name, bound in BOUNDS.items()],
        "per_layer": [{"name": "solver.search_s", "unit": "s",
                       "better": "lower"}]}))
    assert bench_pairs.read_bounds(tmp_path) == BOUNDS


def test_summarise_medians_quartiles_and_wins():
    parent = [0.64, 0.66, 0.62, 0.70]
    change = [0.45, 0.44, 0.63, 0.46]
    failed = [0, 0, 0, 1]
    attempted = [8, 9, 8, 7]
    pairs = [{"first": "parent" if i % 2 == 0 else "change",
              "parent": bench_pairs.parse_result(_stdout(p, 23.8)),
              "change": bench_pairs.parse_result(_stdout(c, 23.6, f, a))}
             for i, (p, c, f, a) in enumerate(zip(parent, change, failed,
                                                  attempted))]
    summary = bench_pairs.summarise(pairs, BOUNDS)
    pass_s = summary["pass_s"]
    assert pass_s["parent"]["median"] == pytest.approx(0.65)
    assert pass_s["change"]["median"] == pytest.approx(0.455)
    # statistics.quantiles' default (exclusive) method over four values
    assert pass_s["parent"]["quartiles"] == pytest.approx([0.625, 0.69])
    assert pass_s["change_lower_in"] == 3 and pass_s["pairs"] == 4
    assert summary["peak_rss_mb"]["change_lower_in"] == 4
    assert summary["setup_s"]["change_lower_in"] == 0
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 32, "change": 32}
    # the change's median over the parent's, against 1 + bound
    assert pass_s["ratio"] == pytest.approx(0.455 / 0.65)
    assert pass_s["bound"] == 0.25 and pass_s["over_bound"] is False
    assert summary["peak_rss_mb"]["ratio"] == pytest.approx(23.6 / 23.8)
    assert summary["setup_s"]["ratio"] == pytest.approx(1.0)
    assert not any(summary[name]["over_bound"] for name in BOUNDS)


def test_summarise_one_pair():
    pair = {"first": "parent",
            "parent": bench_pairs.parse_result(_stdout(0.6, 23.0)),
            "change": bench_pairs.parse_result(_stdout(0.7, 23.0))}
    summary = bench_pairs.summarise([pair], BOUNDS)
    pass_s = summary["pass_s"]
    assert summary["attempted"] == {"parent": 8, "change": 8}
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert pass_s["parent"] == {"median": 0.6, "quartiles": [0.6, 0.6]}
    assert pass_s["change_lower_in"] == 0
    assert pass_s["ratio"] == pytest.approx(0.7 / 0.6)
    assert pass_s["over_bound"] is False  # 16.7% worse, bound 25%
    worse = dict(pair, change=bench_pairs.parse_result(_stdout(0.76, 24.1)))
    summary = bench_pairs.summarise([worse], BOUNDS)
    assert summary["pass_s"]["over_bound"] is True  # 26.7% worse
    assert summary["peak_rss_mb"]["ratio"] == pytest.approx(24.1 / 23.0)
    assert summary["peak_rss_mb"]["over_bound"] is False  # 4.8%, bound 5%


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout


def test_export_commit_unpacks_the_commit_and_returns_its_hash(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("x = 2\n")  # not committed
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # tarfile warns without a filter
        sha = bench_pairs.export_commit(repo, "HEAD", dest)
    assert sha == _git(repo, "rev-parse", "HEAD").strip()
    assert [str(f.relative_to(dest)) for f in dest.rglob("*")
            if f.is_file()] == ["pkg/mod.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "x = 1\n"


def test_export_worktree_takes_edits_and_untracked_files(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("x = 2\n")
    (repo / "pkg" / "new.py").write_text("y = 1\n")
    (repo / "gone.py").unlink()
    (repo / "pkg" / "__pycache__").mkdir()
    (repo / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"")
    status = _git(repo, "status", "--porcelain")
    tree = bench_pairs.export_worktree(repo, dest)
    files = sorted(str(f.relative_to(dest)) for f in dest.rglob("*")
                   if f.is_file())
    assert files == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "x = 2\n"
    # the tree was staged in a temporary index, not the repository's own
    assert _git(repo, "status", "--porcelain") == status
    assert _git(repo, "cat-file", "-t", tree).strip() == "tree"
    assert _git(repo, "rev-parse", "HEAD:pkg/mod.py") != _git(
        repo, "rev-parse", f"{tree}:pkg/mod.py")


def test_run_bench_writes_no_bytecode(monkeypatch, tmp_path):
    # without PYTHONDONTWRITEBYTECODE=1 the benchmark's in-process import
    # would write __pycache__ into the export, and every later CLI child on
    # that side would load bytecode in place of compiling
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        return subprocess.CompletedProcess(cmd, 0, _stdout(0.5, 23.5), "")

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = bench_pairs.run_bench(tmp_path, "cli-cold", 7, 2.0)
    assert out["metrics"]["pass_s"] == 0.5
    [(cmd, kwargs)] = calls
    assert cmd[1:] == ["bench/run.py", "--workload", "cli-cold", "--seed",
                       "7", "--seconds", "2.0", "--trace", "0"]
    assert kwargs["cwd"] == tmp_path
    env = kwargs["env"]
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["BENCH_PAIRS_PROBE"] == "kept"  # the rest of the environment
