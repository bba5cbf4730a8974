"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --workload ladder \\
        --workload relabeled --pairs 5 --seed 103 --seconds 20 \\
        --out BENCH.json

Run from anywhere inside the repository.  Both sides are unpacked with
``git archive`` into temporary directories: the parent commit, and the
working tree written as a tree object through a temporary index (its files
as ``git add -A`` would stage them, edits and files git does not ignore
included, deleted files left out), so the repository's own index is not
touched.  ``bench/run.py --workload W --seed S --seconds T --trace 0`` runs
in the two exports in alternating pairs, with ``PYTHONDONTWRITEBYTECODE=1``
in its environment, so that neither side starts with or writes build
outputs such as a ``__pycache__``: without it the first in-process
``import antimagic`` would write the package's bytecode into the export,
and every later CLI child on that side would load it instead of compiling
the modules it imports.  The parent goes first in even pairs, the working
tree in odd ones, so neither side always meets a warmer or colder host.
The output file holds each pair's end-to-end metrics and pass counts and,
per metric, each side's median and quartiles, the number of pairs the
working tree read lower, and the ratio of the two medians against the bound
that ``BENCHMARK.json`` at the repository root sets for the metric.  Each
side's median pass count is given too: ``bench/run.py`` keeps every pass's
record, so a side that runs more passes in the same seconds reads a higher
``peak_rss_mb`` for that alone.  The
temporary directories are removed afterwards.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# set for every bench/run.py, and recorded in the output's settings
BENCH_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def parse_result(stdout: str) -> dict:
    """The result line ``bench/run.py`` prints last, and the pass count of
    the report line before it, as ``{"correct", "attempted", "failed",
    "passes", "metrics": {name: value}}``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("bench/run.py printed no report and result lines")
    report, doc = json.loads(lines[-2])["report"], json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "passes": report["workload"]["passes"],
            "metrics": metrics}


def summarise(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Per metric and side, the median and quartiles over the pairs, and the
    pairs in which the change read lower (every end-to-end metric is
    better lower), the ratio of the change's median to the parent's and
    whether it exceeds 1 + the metric's bound; under ``attempted`` and
    ``failed``, each side's attempted and failed operations, summed over the
    pairs; under ``passes``, each side's median pass count."""
    names = pairs[0]["parent"]["metrics"]
    out = {}
    for name in names:
        values = {side: [pair[side]["metrics"][name] for pair in pairs]
                  for side in SIDES}
        entry = {}
        for side in SIDES:
            vals = values[side]
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            entry[side] = {"median": statistics.median(vals),
                           "quartiles": [q1, q3]}
        entry["change_lower_in"] = sum(
            c < p for p, c in zip(values["parent"], values["change"]))
        entry["pairs"] = len(pairs)
        entry["ratio"] = ratio = (entry["change"]["median"]
                                  / entry["parent"]["median"])
        entry["bound"] = bounds[name]
        entry["over_bound"] = ratio > 1 + bounds[name]
        out[name] = entry
    for count in ("attempted", "failed"):
        out[count] = {side: sum(pair[side][count] for pair in pairs)
                      for side in SIDES}
    out["passes"] = {side: statistics.median(pair[side]["passes"]
                                             for pair in pairs)
                     for side in SIDES}
    return out


def read_bounds(repo: Path) -> dict[str, float]:
    """The end-to-end metrics' bounds from ``BENCHMARK.json``."""
    doc = json.loads((repo / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env={**os.environ, **BENCH_ENV}, capture_output=True,
        text=True)
    # 1 means a check failed; the result line still reports it
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"bench/run.py in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return parse_result(proc.stdout)


def _git(repo: Path, *args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=repo, env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def _unpack(repo: Path, treeish: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", treeish],
                             cwd=repo, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_commit(repo: Path, ref: str, dest: Path) -> str:
    """Unpack ``ref`` into ``dest``; returns its full commit hash."""
    sha = _git(repo, "rev-parse", "--verify", ref + "^{commit}")
    _unpack(repo, sha, dest)
    return sha


def export_worktree(repo: Path, dest: Path) -> str:
    """Unpack into ``dest`` the working tree as ``git add -A`` would stage
    it; returns the hash of that tree.  The tree is written through a
    temporary index, so the repository's own index is left as it was."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        _git(repo, "read-tree", "HEAD", env=env)
        _git(repo, "add", "-A", env=env)
        tree = _git(repo, "write-tree", env=env)
    _unpack(repo, tree, dest)
    return tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    head = _git(repo, "rev-parse", "HEAD")
    bounds = read_bounds(repo)
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        roots = {side: tmp / side for side in SIDES}
        parent = export_commit(repo, args.parent, roots["parent"])
        tree = export_worktree(repo, roots["change"])
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(roots[side], workload, args.seed,
                                           args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: pass_s "
                      f"{pair['parent']['metrics'].get('pass_s')} -> "
                      f"{pair['change']['metrics'].get('pass_s')}, passes "
                      f"{pair['parent']['passes']} -> "
                      f"{pair['change']['passes']}", file=sys.stderr)
            summary = summarise(pairs, bounds)
            workloads[workload] = {"pairs": pairs, "summary": summary}
            for name in bounds:
                entry = summary[name]
                print(f"{workload} {name}: x{entry['ratio']:.3f}, bound "
                      f"{entry['bound']}, over: {entry['over_bound']}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {
        "parent": parent,
        "change": {"head": head, "tree": tree},
        "settings": {"seed": args.seed, "seconds": args.seconds,
                     "pairs": args.pairs, "env": BENCH_ENV},
        "host": {"python": platform.python_version(),
                 "nproc": os.cpu_count(), "machine": platform.machine()},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
