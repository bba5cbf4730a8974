"""Benchmark of the antimagic package, end to end and layer by layer.

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the workload's fixed pass repeats for
about ``--seconds`` seconds and the end-to-end metrics are reported.  With
``--trace 1`` one untraced and one traced pass run, followed by the descent
replay and the layer probe, and the per-layer metrics are reported.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is a
JSON report with provenance, the workload's own metrics (solve time, node
counts, certificate and witness rates, warm and cold CLI latency) and every
failed check.  The exit code is 1 when any check fails and 2 when the
package cannot be loaded from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics
from stats import REFERENCE_S, interpreter_seconds, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3
IMPORT_REPS = 5
STARTUP_REPS = 5
PROBE_GRAPHS = 4


def load_package():
    """Import antimagic from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import antimagic
    except ImportError as exc:
        print(f"bench: cannot import antimagic from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    where = Path(antimagic.__file__).resolve()
    if src.resolve() not in where.parents:
        print(f"bench: antimagic was imported from {where}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return antimagic


def provenance(am, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "antimagic_file": am.__file__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_subprocess(cmd, env) -> float:
    t = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t


# Times ``import antimagic`` inside a fresh interpreter, with the reference
# kernel run there after the import, so that process start-up is left out and
# the import is scaled by the child's own speed.
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from stats import reference_seconds
t = time.perf_counter()
import antimagic
elapsed = time.perf_counter() - t
print(elapsed, min(reference_seconds() for _ in range(5)))
"""


def fresh_import(env) -> tuple[float, float]:
    """(seconds, seconds at reference speed) of a fresh package import."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(BENCH)],
                          env=env, cwd=ROOT, check=True, capture_output=True,
                          text=True)
    elapsed, ref = map(float, proc.stdout.split())
    return elapsed, elapsed * REFERENCE_S / ref


def timed_prepare(wl):
    """The workload's input preparation as timed operations; a workload that
    does not time its parts counts as one operation."""
    from workloads import PassResult

    timer = PassResult()
    t = time.perf_counter()
    wl.prepare(timer)
    if not timer.times:
        timer.timed("prepare", time.perf_counter() - t)
    return timer


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- descent replay and layer probe -------------------------------------------


def replay(am, solve) -> dict:
    """Drive ``feasible_with_k_colors`` from k = p downward the way
    ``exact_chi_la`` does and compare against the recorded exact solve."""
    g = solve.graph
    k = g.p
    steps = []
    chi = None
    while True:
        t = time.perf_counter()
        out = am.feasible_with_k_colors(g, k)
        steps.append({"k": k, "status": out.status,
                      "nodes": out.nodes_explored,
                      "s": time.perf_counter() - t})
        if out.status != am.FEASIBLE:
            break
        chi = out.certificate.color_count
        if chi <= 2:
            break
        k = chi - 1
    if steps[-1]["status"] != am.INFEASIBLE and chi != 2:
        chi = None
    nodes = sum(s["nodes"] for s in steps)
    return {"steps": steps, "chi": chi, "nodes": nodes,
            "ok": nodes == solve.nodes and chi == solve.chi}


def library_probe(am, bounds) -> bool:
    """One small call into each library layer, so that every per-layer
    metric is measured on every workload."""
    ok = True
    for sweep, ns in ((bounds.sweep_friendship_inequalities, range(2, 4)),
                      (bounds.sweep_fan_inequalities, range(3, 5))):
        ws = sweep(ns, range(1, 3))
        bounds.witnesses_to_csv(ws, io.StringIO())
        ok = ok and len(ws) > 0
    for n in (3, 6):
        report = am.construct(n)
        ok = ok and am.verify_certificate(report.certificate, report.graph)
    return ok


def cli_probe(am, cli, wl, work: Path, env: dict):
    """In-process ``cli.main`` on cache misses then hits, plus interpreter
    and import start-up in fresh processes."""
    from inputs import distinct_docs, rng_for
    from workloads import ExactSolve, write_doc

    cache = getattr(wl, "cache", None) or work / "probe-cache"
    seen = getattr(wl, "seen", set())
    docs = distinct_docs(rng_for(wl.name, wl.seed, "probe"), PROBE_GRAPHS,
                         seen)
    # C3oO2 has pendant twins, so symmetry pairs are counted on every workload
    docs.append(am.corona(am.cycle(3), am.null_graph(2)).to_doc())
    out = work / "probe-out.json"
    cold_ms, warm_ms, solves, ok = [], [], [], True
    paths = [write_doc(work / f"probe-{i}.json", d) for i, d in enumerate(docs)]
    for phase, times in (("cold", cold_ms), ("warm", warm_ms)):
        for path, doc in zip(paths, docs):
            argv = ["solve", str(path), "--cache-dir", str(cache),
                    "--out", str(out)]
            t = time.perf_counter()
            code = cli.main(argv)
            times.append((time.perf_counter() - t) * 1e3)
            answer = json.loads(out.read_text())
            ok = ok and code == 0 and answer.get("status") == am.EXACT
            if phase == "cold":
                solves.append(ExactSolve(path.stem, am.Graph.from_doc(doc),
                                         answer.get("chi"),
                                         answer.get("nodes_explored")))
            else:
                ok = ok and answer.get("cached") is True
    index = cache / "cache.jsonl"
    records = sum(1 for line in index.read_text().splitlines() if line)
    size = sum(p.stat().st_size for p in cache.iterdir() if p.is_file())
    interp = median(interpreter_seconds() for _ in range(STARTUP_REPS))
    imported = median(timed_subprocess(
        [sys.executable, "-c", "import antimagic.cli"], env)
        for _ in range(STARTUP_REPS))
    metrics = {
        "cli.interp_ms": interp * 1e3,
        "cli.import_ms": (imported - interp) * 1e3,
        "cli.main_warm_ms": median(warm_ms),
        "cli.main_cold_ms": median(cold_ms),
        "cli.cache_records": records,
        "cli.cache_bytes": size,
    }
    return metrics, solves, ok


# -- run modes ----------------------------------------------------------------


def run_timed(am, wl, args, env, work) -> tuple[dict, dict, list]:
    from workloads import typical_pass_s

    imports = [fresh_import(env) for _ in range(IMPORT_REPS)]
    prepares = [timed_prepare(wl) for _ in range(SETUP_REPS)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    metrics = {
        "setup_s": median(s for _, s in imports)
        + median(p.scaled_s for p in prepares),
        "pass_s": typical_pass_s(passes),
        "peak_rss_mb": peak_rss_mb(wl.children),
    }
    report = dict(wl.summary(passes))
    report["pass_wall_s"] = {"value": typical_pass_s(passes, scaled=False),
                             "unit": "s"}
    report["setup_wall_s"] = {
        "value": median(w for w, _ in imports)
        + median(p.wall_s for p in prepares), "unit": "s"}
    # the reference the passes were scaled by (the CLI's is an interpreter)
    refs = [r for p in passes for r in p.scaler.refs]
    report["reference_ms"] = {"value": median(refs) * 1e3, "unit": "ms",
                              "samples": len(refs)}
    report["passes"] = len(passes)
    return metrics, report, [op for p in passes for op in p.ops]


def run_traced(am, wl, args, env, work) -> tuple[dict, dict, list]:
    from antimagic import bounds, cli, solver
    from workloads import Op

    ops = []

    def timed_prepare_and_pass():
        prepared = timed_prepare(wl)
        result = wl.run_pass(0)
        ops.extend(result.ops)
        return prepared.scaled_s + result.scaled_s, result

    untraced_s, first = timed_prepare_and_pass()
    tracer = Tracer()
    with tracer:
        traced_s, _ = timed_prepare_and_pass()
        lib_ok = library_probe(am, bounds)
        cli_metrics, probe_solves, cli_ok = cli_probe(am, cli, wl, work, env)
    ops += [Op("library-probe", lib_ok), Op("cli-probe", cli_ok)]

    wl_solves = wl.exact_solves(first)
    detailed = {s.name for s in wl_solves} if len(wl_solves) <= 10 else set()
    solves = wl_solves + probe_solves
    replays = [(s, replay(am, s)) for s in solves]
    search_nodes = proof_nodes = 0
    search_s = proof_s = 0.0
    per_k = {}
    for s, r in replays:
        ops.append(Op("replay", r["ok"], f"{s.name}: {r['nodes']} nodes "
                      f"chi {r['chi']}, exact_chi_la {s.nodes} chi {s.chi}"))
        for step in r["steps"]:
            if step["status"] == am.INFEASIBLE:
                proof_nodes += step["nodes"]
                proof_s += step["s"]
            else:
                search_nodes += step["nodes"]
                search_s += step["s"]
        if s.name in detailed:
            for step in r["steps"]:
                key = f"solver.{s.name}.k{step['k']}"
                per_k[key + ".nodes"] = step["nodes"]
                per_k[key + ".s"] = step["s"]
    metrics = layer_metrics(tracer.spans)
    metrics.update({
        "solver.search_nodes": search_nodes,
        "solver.search_s": search_s,
        "solver.proof_nodes": proof_nodes,
        "solver.proof_s": proof_s,
        "solver.nodes_per_s": (search_nodes + proof_nodes)
        / (search_s + proof_s),
        "solver.sym_pairs": sum(len(solver.symmetry_pairs(s.graph))
                                for s in solves),
    })
    metrics.update(cli_metrics)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    report = dict(wl.summary([first]))
    report.update({
        "per_k": per_k,
        "replays": {s.name: {"chi": r["chi"], "nodes": r["nodes"],
                             "steps": [(st["k"], st["nodes"])
                                       for st in r["steps"]]}
                    for s, r in replays[:12]},
        "replayed_solves": len(replays),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    })
    return metrics, report, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ladder", "relabeled", "catalog",
                                 "cli-warm", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    am = load_package()
    from workloads import WORKLOADS, cli_env

    env = cli_env(ROOT)
    work = ROOT / ".bench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, ROOT)
        run = run_traced if args.trace else run_timed
        metrics, report, ops = run(am, wl, args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    report["failed_frac"] = {"value": failed / attempted, "unit": "frac"}
    report = {"provenance": provenance(am, args), "workload": report,
              "failures": [f"{op.kind}: {op.note}" for op in ops
                           if not op.ok][:50]}
    print(json.dumps({"report": report}, default=str))
    # names and units come from BENCHMARK.json; a missing metric is an error
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
