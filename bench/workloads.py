"""The benchmark workloads.

Each workload prepares its inputs from the seed (``prepare``, timed as part
of set-up) and then runs a fixed pass of checked operations (``run_pass``).
Only the calls into the package are timed; correctness checks run between
them.  Every operation appends one ``Op`` whose ``ok`` flag counts into the
run's attempted/failed totals.

ladder       the paper's role-tagged instances: exact solves plus budgeted
             searches on instances the solver cannot finish.
relabeled    the exact instances as hand-written files: a fixed vertex
             permutation per instance, shuffled edges, plain roles.
catalog      construct(n) + verify_certificate for n = 2..200, both 50x50
             inequality sweeps, exported to CSV.
cli-warm     ``antimagic solve`` subprocesses that hit a filled cache.
cli-cold     ``antimagic solve`` subprocesses on unseen graphs, which solve
             and append to the filled cache.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import antimagic as am
from antimagic import bounds, cli

from inputs import (distinct_docs, ladder_instances, open_instances,
                    relabeled_doc, rng_for)
from stats import (INTERPRETER_S, Scaler, interpreter_seconds, median,
                   sampled_call, tail_percentile)

# Node budget per open instance on the ladder.  At 100k nodes the best
# colourings (10, 8, 14) are the same as at 500k, at a fifth of the time;
# at 50k f2oO2 still needs 15.
OPEN_NODE_BUDGET = 100_000
# Safety budget per relabeled exact solve; running out is a failure.  Over
# 24 random relabelings the largest count was 1,172,857 (f2oO1).
RELABELED_NODE_BUDGET = 4_000_000
CATALOG_N = range(2, 201)
FRIENDSHIP_WITNESSES = 7_350
FAN_WITNESSES = 156_001
# Records in the CLI workloads' cache and requests per pass.  Both are a
# choice, not measured traffic: no source gives a cache size or a hit rate.
# The graph space (connected, q <= 8, p <= 7) has about 195 shapes that
# ``shape_key`` tells apart, so the fill and the cold graphs must stay well
# below that together.
CACHE_FILL = 100
REQUESTS_PER_PASS = 20
REQUEST_TIMEOUT_S = 120


@dataclass
class Op:
    kind: str
    ok: bool
    note: str = ""


@dataclass
class PassResult:
    wall_s: float = 0.0              # summed time of the timed calls
    scaled_s: float = 0.0            # the same, at reference speed
    times: list = field(default_factory=list)   # (key, seconds, scaled)
    ops: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    scaler: Scaler = field(default_factory=Scaler)

    def timed(self, key: str, seconds: float, during=()) -> float:
        scaled = self.scaler.scale(seconds, during)
        self.times.append((key, seconds, scaled))
        self.wall_s += seconds
        self.scaled_s += scaled
        return seconds

    def call(self, key: str, fn, *args):
        """Time an in-process call with the kernel sampled during it;
        returns (result, seconds)."""
        result, seconds, during = sampled_call(fn, *args)
        return result, self.timed(key, seconds, during)

    def check(self, kind: str, ok: bool, note: str = "") -> None:
        self.ops.append(Op(kind, bool(ok), note))


@dataclass
class ExactSolve:
    """An in-process exact solve, kept for the descent replay."""
    name: str
    graph: am.Graph
    chi: int
    nodes: int


def _verified(cert, g) -> bool:
    try:
        return cert is not None and am.verify_certificate(cert, g)
    except am.GraphMismatchError:
        return False


# -- solver workloads ------------------------------------------------------


class _SolverWorkload:
    """Shared pass logic for ladder and relabeled: ``self.items`` holds
    (name, graph, expected chi or None, lower bound or None, node budget)."""

    children = False

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.items = []
        self._first_nodes = None

    def prepare(self, timer: PassResult) -> None:
        items = self.instances()
        # the seed only fixes the solve order; the inputs do not change with it
        rng_for(self.name, self.seed, "order").shuffle(items)
        self.items = items
        self._first_nodes = None

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(stats={"instances": {}})
        for name, g, chi, lower, budget in self.items:
            cfg = am.SearchConfig(node_budget=budget)
            out, dt = res.call(name, am.exact_chi_la, g, cfg)
            row = {"status": out.status, "nodes": out.nodes_explored,
                   "s": dt, "exact": chi is not None}
            if chi is not None:
                row["chi"] = out.chi
                ok = (out.status == am.EXACT and out.chi == chi
                      and _verified(out.certificate, g))
                res.check("exact-solve", ok, f"{name}: {out.status} "
                          f"chi={out.chi} expected {chi}")
            else:
                best = out.certificate if out.status == am.EXACT \
                    else out.best_so_far
                row["best"] = best.color_count if best else None
                ok = (best is not None and _verified(best, g)
                      and best.color_count >= lower)
                res.check("budgeted-solve", ok, f"{name}: best "
                          f"{row['best']} lower {lower}")
            res.stats["instances"][name] = row
        nodes = {n: r["nodes"] for n, r in res.stats["instances"].items()}
        if self._first_nodes is None:
            self._first_nodes = nodes
        else:
            res.check("deterministic-nodes", nodes == self._first_nodes,
                      f"pass {index} nodes differ from pass 0")
        return res

    def exact_solves(self, first: PassResult) -> list:
        out = []
        for name, g, chi, _lower, _budget in self.items:
            row = first.stats["instances"][name]
            if chi is not None and row["status"] == am.EXACT:
                out.append(ExactSolve(name, g, row["chi"], row["nodes"]))
        return out

    @staticmethod
    def summary(passes: list) -> dict:
        first = passes[0].stats["instances"]
        exact_s = [sum(r["s"] for r in p.stats["instances"].values()
                       if r["exact"]) for p in passes]
        nodes = sum(r["nodes"] for r in first.values())
        summary = {
            "solve_s": {"value": median(exact_s), "unit": "s"},
            "nodes": {"value": nodes, "unit": "count"},
            "nodes_per_s": {"value": nodes / median(p.wall_s for p in passes),
                            "unit": "1/s"},
        }
        best = [r["best"] for r in first.values() if "best" in r]
        if best:
            summary["open_best_colors"] = {
                "value": sum(b or 0 for b in best), "unit": "colors"}
        summary["instances"] = first
        return summary


class Ladder(_SolverWorkload):
    name = "ladder"

    @staticmethod
    def instances() -> list:
        items = [(name, build(), value(), None, None)
                 for name, (build, value) in ladder_instances().items()]
        items += [(name, build(), None, lower(), OPEN_NODE_BUDGET)
                  for name, (build, lower) in open_instances().items()]
        return items


class Relabeled(_SolverWorkload):
    name = "relabeled"
    INSTANCES = ("C3oO2", "F3oO1", "K4oK1", "f2oO1")

    @classmethod
    def instances(cls) -> list:
        """One fixed relabeling per instance, from a stream that does not
        depend on the run seed: the node count of a relabeled solve depends
        on the permutation (0.5M or 1.1M nodes for f2oO1), so a seeded one
        would make the work differ from seed to seed."""
        items = []
        for name, (build, value) in ladder_instances().items():
            if name in cls.INSTANCES:
                doc = relabeled_doc(build(), rng_for(cls.name, 0, name))
                items.append((name, am.Graph.from_doc(doc), value(), None,
                              RELABELED_NODE_BUDGET))
        return items


# -- catalog -----------------------------------------------------------------


def _certify(ns) -> list:
    """(n, construct(n), whether its certificate verifies) for each n."""
    out = []
    for n in ns:
        report = am.construct(n)
        out.append((n, report,
                    am.verify_certificate(report.certificate, report.graph)))
    return out


def _write_csv(witnesses, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        bounds.witnesses_to_csv(witnesses, fh)


class Catalog:
    name = "catalog"
    children = False

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work

    def prepare(self, timer: PassResult) -> None:
        self.out_dir = self.work / "catalog"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # the seed only fixes the construction order
        self.order = list(CATALOG_N)
        rng_for(self.name, self.seed, "order").shuffle(self.order)

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        # one timed call, so that the in-op samples cover it; a single
        # construct lasts about 5 ms, less than the sampling interval
        certified, cert_s = res.call("certificates", _certify, self.order)
        for n, report, ok in certified:
            res.check("certificate", ok and report.certificate.color_count
                      == 2 * n + 3, f"n={n}")
        sweeps = (("friendship", bounds.sweep_friendship_inequalities,
                   FRIENDSHIP_WITNESSES),
                  ("fan", bounds.sweep_fan_inequalities, FAN_WITNESSES))
        del certified
        sweep_s = csv_s = 0.0
        witnesses = 0
        for label, sweep, expected in sweeps:
            ws, dt = res.call(f"sweep {label}", sweep)
            sweep_s += dt
            path = self.out_dir / f"{label}.csv"
            _, dt = res.call(f"csv {label}", _write_csv, ws, path)
            csv_s += dt
            with open(path) as fh:
                rows = sum(1 for _ in fh) - 1
            res.check("sweep", len(ws) == expected and rows == expected,
                      f"{label}: {len(ws)} witnesses, {rows} CSV rows, "
                      f"expected {expected}")
            witnesses += len(ws)
            del ws
        res.stats = {"cert_s": cert_s, "sweep_s": sweep_s, "csv_s": csv_s,
                     "certificates": len(self.order), "witnesses": witnesses}
        return res

    def exact_solves(self, first: PassResult) -> list:
        return []

    @staticmethod
    def summary(passes: list) -> dict:
        def med(key):
            return median(p.stats[key] for p in passes)
        first = passes[0].stats
        return {
            "certs_per_s": {"value": first["certificates"] / med("cert_s"),
                            "unit": "1/s"},
            "witnesses_per_s": {
                "value": first["witnesses"] / median(
                    p.stats["sweep_s"] + p.stats["csv_s"] for p in passes),
                "unit": "1/s"},
            "cert_s": {"value": med("cert_s"), "unit": "s"},
            "sweep_s": {"value": med("sweep_s"), "unit": "s"},
            "csv_s": {"value": med("csv_s"), "unit": "s"},
        }


# -- cli workloads ---------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop(cli.CACHE_ENV, None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def write_doc(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


class CliSession:
    """``antimagic solve`` subprocesses, one at a time, against a cache that
    set-up fills in-process through ``cli.main``.  A subclass sets ``kind``:
    warm requests are hits on seeded filled graphs; cold ones are a fixed set
    of graphs, the same for every seed, that is not isomorphic to any filled
    graph.  The seed picks the fill and the request order.  Every pass makes
    the same requests, and a cold pass starts from a fresh copy of the filled
    cache, so its graphs are unseen again."""

    name = ""
    kind = ""
    children = True

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.env = cli_env(root)
        self.graph_dir = work / "graphs"
        self.graph_dir.mkdir(parents=True, exist_ok=True)
        self._prepared = 0
        self.fill_solves = []

    def _graph_file(self, doc: dict) -> Path:
        g = am.Graph.from_doc(doc)
        return write_doc(self.graph_dir / f"{g.content_hash()}.json", doc)

    def prepare(self, timer: PassResult) -> None:
        """Fill a fresh cache in-process through ``cli.main``; each call is
        one timed operation.  Then pick the pass's requests."""
        self._prepared += 1
        self.cache = self.work / f"cache-{self._prepared}"
        self.seen = set()
        # drawn first, so that the seeded fill avoids them
        colds = distinct_docs(rng_for("cli-cold", 0, "graphs"),
                              REQUESTS_PER_PASS, self.seen)
        docs = distinct_docs(rng_for("cli", self.seed, "fill"), CACHE_FILL,
                             self.seen)
        out = self.work / "fill-out.json"
        self.fill = []
        self.fill_solves = []
        self.fill_ok = True
        for doc in docs:
            path = self._graph_file(doc)
            t = time.perf_counter()
            code = cli.main(["solve", str(path), "--cache-dir",
                             str(self.cache), "--out", str(out)])
            timer.timed("fill", time.perf_counter() - t)
            answer = json.loads(out.read_text())
            nodes = answer.get("nodes_explored")
            ok = (code == 0 and answer.get("status") == am.EXACT
                  and not answer.get("cached") and nodes is not None)
            self.fill_ok = self.fill_ok and ok
            if ok:
                g = am.Graph.from_doc(doc)
                self.fill.append((path, answer["chi"]))
                self.fill_solves.append(ExactSolve(
                    path.stem[:12], g, answer["chi"], nodes))
        rng = rng_for(self.name, self.seed, "requests")
        if self.kind == "warm":
            self.requests = [self.fill[rng.randrange(len(self.fill))]
                             for _ in range(REQUESTS_PER_PASS)] \
                if self.fill else []
        else:
            self.requests = [(self._graph_file(d), None) for d in colds]
            rng.shuffle(self.requests)

    def request(self, path: Path, cache: Path):
        cmd = [sys.executable, "-m", "antimagic.cli", "solve", str(path),
               "--cache-dir", str(cache)]
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, cwd=self.work,
                              timeout=REQUEST_TIMEOUT_S)
        dt = time.perf_counter() - t
        try:
            answer = json.loads(proc.stdout)
        except json.JSONDecodeError:
            answer = None
        return dt, proc.returncode, answer

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(stats={"cold_nodes": 0},
                         scaler=Scaler(interpreter_seconds, INTERPRETER_S))
        res.check("cache-fill", self.fill_ok and len(self.fill) == CACHE_FILL,
                  f"{len(self.fill)} of {CACHE_FILL} fill solves ok")
        cache = self.cache
        if self.kind == "cold":
            cache = self.work / "pass-cache"
            shutil.rmtree(cache, ignore_errors=True)
            if self.cache.is_dir():     # absent only if every fill failed
                shutil.copytree(self.cache, cache)
        for path, chi in self.requests:
            dt, code, answer = self.request(path, cache)
            res.timed(self.kind, dt)
            ok = code == 0 and answer is not None \
                and answer.get("status") == am.EXACT
            if ok:
                g = am.Graph.from_doc(json.loads(path.read_text()))
                cert = am.Certificate.from_doc(answer["certificate"])
                ok = _verified(cert, g) and cert.color_count == answer["chi"]
                if self.kind == "warm":
                    ok = ok and answer.get("cached") is True \
                        and answer["chi"] == chi
                else:
                    ok = ok and not answer.get("cached")
                    res.stats["cold_nodes"] += answer.get("nodes_explored", 0)
            res.check(f"{self.kind}-request", ok, f"{path.name}: exit {code}")
        return res

    def exact_solves(self, first: PassResult) -> list:
        return list(self.fill_solves)

    @classmethod
    def summary(cls, passes: list) -> dict:
        kind = cls.kind
        samples = [seconds * 1e3 for p in passes
                   for key, seconds, _ in p.times if key == kind]
        tail = tail_percentile(samples)
        out = {
            f"{kind}_p50_ms": {"value": median(samples), "unit": "ms",
                               "samples": len(samples)},
            f"{kind}_tail_ms": (
                {"value": tail[1], "unit": "ms", "percentile": tail[0],
                 "beyond": tail[2], "samples": len(samples)}
                if tail else None),
        }
        if kind == "cold":
            out["cold_nodes"] = {"value": sum(p.stats["cold_nodes"]
                                              for p in passes),
                                 "unit": "count"}
        return out


class CliWarm(CliSession):
    name = "cli-warm"
    kind = "warm"


class CliCold(CliSession):
    name = "cli-cold"
    kind = "cold"


def typical_pass_s(passes: list, scaled: bool = True) -> float:
    """One pass's time with each operation at its median over the run's
    passes.  Operations that share a key (CLI requests of one kind) each
    count at the key's median."""
    samples: dict[str, list] = {}
    for p in passes:
        for key, seconds, at_reference in p.times:
            samples.setdefault(key, []).append(
                at_reference if scaled else seconds)
    per_pass: dict[str, int] = {}
    for key, *_ in passes[0].times:
        per_pass[key] = per_pass.get(key, 0) + 1
    return sum(n * median(samples[key]) for key, n in per_pass.items())


WORKLOADS = {"ladder": Ladder, "relabeled": Relabeled, "catalog": Catalog,
             "cli-warm": CliWarm, "cli-cold": CliCold}
