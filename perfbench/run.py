"""qkcalc benchmark: cold exact and mod-p table builds, then product serving.

    python3 perfbench/run.py --workload exact-build|modp-build|all
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The program is used from `src/` as it is
checked out; nothing is installed.  Every program process is a fresh
`worker.py` interpreter that calls `qkcalc.cli.main` in-process, with
PYTHONHASHSEED pinned (see README.md for why).

Each workload runs in two phases, each for half of --seconds and at least
three times:

  build rounds    a fresh process with an empty cache dir runs `table` and
                  `verify` on every space of the workload
  query replays   a fresh process, a single closed-loop client, sends a
                  seeded list of `product` queries once against the cache
                  the last round built

  exact-build     six small spaces, `--backend=exact`, `verify --suite=all`,
                  2000 queries
  modp-build      three spaces, `--backend=mod-p`,
                  `verify --suite=table --backend=mod-p`, 1000 queries

The host changes speed by tens of percent from one moment to the next.  So
every timed operation is bracketed by runs of a fixed reference kernel
(refkernel.py) and scaled to the kernel's nominal time, and an operation's
time is the median of its scaled repetitions.  Every repetition's output is
checked: nonzero-constant counts against values recorded at commit 17267fb,
exit codes, every product answer against the in-memory table the build
produced, no table build during a query, and an unchanged cache dir while
queries are served.  With --trace 1 the run instead does one untraced and
one traced repetition of each phase and reports per-layer totals and the
tracing overhead.  README.md records why each workload was chosen, which
layers it stresses or bypasses, and what was left out.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import refkernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
HASH_SEED = "0"
DEADLINE_S = 170.0

EXACT_SPACES = ("P1", "LG(2,4)", "Q(3)", "Gr(2,4)", "Q(4)", "Q(5)")
MODP_SPACES = ("Gr(2,6)", "OG(5,10)", "LG(4,8)")
MIN_REPEATS = 3
# fresh interpreters timed for setup_s
SETUPS = 11

# Nonzero structure constants printed by `qkcalc table`, recorded at commit
# 17267fb (mod-p: qkcalc --seed 0).
GOLDEN_NONZERO = {
    "P1": 5, "LG(2,4)": 37, "Q(3)": 37, "Gr(2,4)": 95, "Q(4)": 95, "Q(5)": 112,
    "Gr(2,6)": 1348, "OG(5,10)": 1848, "LG(4,8)": 2532,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    # (space, backend) in query-popularity order: rank r is drawn with
    # weight 1/r
    spaces: tuple
    # `verify` arguments after the space
    verify_args: tuple
    # length of the query list
    queries: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-build", tuple((s, "exact") for s in EXACT_SPACES), ("--suite=all",), 2000),
        Workload("modp-build", tuple((s, "mod-p") for s in MODP_SPACES),
                 ("--suite=table", "--backend=mod-p"), 1000),
    )
}

UNITS = {
    "setup_s": "s", "wall_s": "s", "table_s": "s", "verify_s": "s",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """The benchmark itself could not run (not a wrong program answer)."""


def pin_hash_seed() -> None:
    """Re-exec under a fixed PYTHONHASHSEED: the probe suite seeds its RNG
    from str hashes, which are salted per process otherwise."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)


# ---------------------------------------------------------------------------
# inputs


def make_queries(wl: Workload, seed: int) -> list:
    """Seeded product queries [space, u, v, format, backend, ui, vi]."""
    from qkcalc.poset import build_cominuscule

    rng = random.Random(f"{wl.name}/{seed}")
    weights = [1.0 / r for r in range(1, len(wl.spaces) + 1)]
    shapes = {}
    for space, _ in wl.spaces:
        poset = build_cominuscule(space)
        shapes[space] = [poset.format_shape(s) for s in poset.shapes()]
    out = []
    for space, backend in rng.choices(wl.spaces, weights, k=wl.queries):
        names = shapes[space]
        ui, vi = rng.randrange(len(names)), rng.randrange(len(names))
        fmt = rng.choice(("text", "json"))
        out.append([space, names[ui], names[vi], fmt, backend, ui, vi])
    return out


def input_properties(wl: Workload, seed: int, queries: list) -> dict:
    from qkcalc.poset import build_cominuscule

    n = max(len(queries), 1)
    seen = set()
    reused = 0
    for q in queries:
        reused += q[0] in seen
        seen.add(q[0])
    return {
        "workload": wl.name,
        "seed": seed,
        "python_hash_seed": HASH_SEED,
        "spaces": {
            s: {"k": len(build_cominuscule(s).shape_masks), "backend": b} for s, b in wl.spaces
        },
        "queries": len(queries),
        "exact_share": sum(q[4] == "exact" for q in queries) / n,
        "modp_share": sum(q[4] == "mod-p" for q in queries) / n,
        "reuse_share": reused / n,
        "json_share": sum(q[3] == "json" for q in queries) / n,
    }


def _commands(wl: Workload, cache_dir: str) -> list:
    cmds = []
    for space, backend in wl.spaces:
        cmds.append(dict(kind="table", space=space, backend=backend,
                         argv=["table", space, f"--backend={backend}", "--cache-dir", cache_dir]))
        cmds.append(dict(kind="verify", space=space, backend=backend,
                         argv=["verify", space, *wl.verify_args, "--cache-dir", cache_dir]))
    return cmds


def _golden_pairs(queries: list) -> dict:
    pairs: dict[str, set] = {}
    for q in queries:
        pairs.setdefault(q[0], set()).add((q[5], q[6]))
    return {s: sorted(p) for s, p in pairs.items()}


# ---------------------------------------------------------------------------
# processes


class Run:
    """Scratch space, deadline and child processes of one benchmark run."""

    def __init__(self, name: str):
        self.name = name
        RUNS.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))
        self.deadline = perf_counter() + DEADLINE_S
        self.jobs = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _timeout(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise HarnessError("run exceeded its time limit")
        return left

    def cache_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.dir)

    def worker(self, job: dict) -> dict:
        """Run one worker process and return its results."""
        self.jobs += 1
        out_dir = self.dir / f"job-{self.jobs}"
        out_dir.mkdir()
        job = dict(dict(commands=[], queries=[], golden_pairs={}), out_dir=str(out_dir), **job)
        (out_dir / "job.json").write_text(json.dumps(job))
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(out_dir / "job.json")],
                              env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=self._timeout())
        if proc.returncode != 0:
            raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(out_dir / "ops.jsonl") as fh:
            ops = [json.loads(line) for line in fh]
        with open(out_dir / "golden.jsonl") as fh:
            golden = {(s, ui, vi): ans for s, ui, vi, ans in map(json.loads, fh)}
        result = json.loads((out_dir / "result.json").read_text())
        if job["trace"]:
            (RUNS / "traces").mkdir(exist_ok=True)
            shutil.copy(out_dir / "spans.json", RUNS / "traces" / f"{self.name}-{out_dir.name}.json")
        return dict(ops=ops, golden=golden, **result)

    def import_times(self, n: int) -> list:
        """`n` times a fresh interpreter start plus `import qkcalc.cli`, each
        with the mean reference kernel time around it as `ref`."""
        out = []
        before = refkernel.timed()
        for _ in range(n):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import qkcalc.cli"], env=_child_env(),
                           check=True, timeout=self._timeout())
            dt = perf_counter() - t0
            after = refkernel.timed()
            out.append(dict(dt=dt, ref=(before + after) / 2))
            before = after
        return out


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Counts attempted and failed operations; keeps the first reasons."""

    def __init__(self, golden_counts: dict):
        self.golden_counts = golden_counts
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def commands(self, ops: list) -> None:
        for op in ops:
            if op["kind"] == "product":
                continue
            self.attempted += 1
            where = f"{op['kind']} {op['space']}"
            if op["rc"] != 0:
                self.fail(f"{where}: exit {op['rc']}: {op['err'].strip()[-300:]}")
            elif op["kind"] == "table":
                m = re.search(r"nonzero constants=(\d+)", op["out"])
                want = self.golden_counts[op["space"]]
                if m is None or int(m.group(1)) != want:
                    self.fail(f"{where}: nonzero constants {m and m.group(1)}, golden {want}")

    def products(self, ops: list, queries: list, golden: dict, cache_unchanged: bool) -> None:
        from answers import check_product
        from qkcalc.poset import build_cominuscule

        # replays print the same output for the same query: check it once
        verdicts: dict[tuple, str | None] = {}
        for op in ops:
            if op["kind"] != "product":
                continue
            self.attempted += 1
            space, u, v, fmt, backend, ui, vi = queries[op["i"]]
            where = f"product {space} {u} {v} --format {fmt}"
            if op["rc"] != 0:
                self.fail(f"{where}: exit {op['rc']}: {op['err'].strip()[-300:]}")
                continue
            if op["built"]:
                self.fail(f"{where}: the query built a table")
                continue
            answer = golden.get((space, ui, vi))
            if answer is None:
                self.fail(f"{where}: no golden answer")
                continue
            key = (op["i"], op["out"])
            if key not in verdicts:
                verdicts[key] = check_product(build_cominuscule(space), backend == "exact", u, v, fmt,
                                              op["out"], answer)
            reason = verdicts[key]
            if reason:
                self.fail(f"{where}: {reason}")
        self.attempted += 1
        if not cache_unchanged:
            self.fail("the cache dir changed during the query phase")


# ---------------------------------------------------------------------------
# metrics


def _p99(samples: list) -> float:
    s = sorted(samples)
    return s[math.ceil(0.99 * len(s)) - 1]


def _scaled(op: dict, key: str = "dt") -> float:
    """An operation's seconds scaled to the reference kernel's nominal
    speed."""
    return op[key] * refkernel.REF_S / op["ref"]


def _ops(results: list) -> dict:
    """Median scaled time of every operation over the repetitions in
    `results`.  Keys: ("table" | "verify", space), ("product", query index)."""
    reps: dict[tuple, list] = {}
    for res in results:
        for op in res["ops"]:
            key = (op["kind"], op["i"] if op["kind"] == "product" else op["space"])
            reps.setdefault(key, []).append(_scaled(op))
    return {key: statistics.median(v) for key, v in reps.items()}


def _host_speed(results: list) -> float:
    """Median of REF_S / kernel time over the run: above 1 when the host ran
    faster than nominal, so raw seconds = scaled seconds / host_speed."""
    return statistics.median(refkernel.REF_S / op["ref"] for res in results for op in res["ops"])


def _timings(ops: dict) -> dict:
    def total(kind):
        return sum(dt for (k, _), dt in ops.items() if k == kind)

    return {"wall_s": sum(ops.values()), "table_s": total("table"), "verify_s": total("verify")}


def _latency(ops: dict) -> dict:
    lat = [dt for (k, _), dt in ops.items() if k == "product"]
    return {
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p99_ms": _p99(lat) * 1e3,
        "queries_per_s": len(lat) / sum(lat),
    }


def _layers(*workers: dict) -> dict:
    out: dict[str, float] = {}
    for w in workers:
        for k, v in w["layers"].items():
            out[k] = out.get(k, 0) + v
    return out


def _repeat(one, seconds: float) -> list:
    """Call one() at least MIN_REPEATS times and until `seconds` have passed."""
    start = perf_counter()
    out = []
    while len(out) < MIN_REPEATS or perf_counter() - start < seconds:
        out.append(one())
    return out


def measure(wl: Workload, run: Run, check: Checker, seed: int, seconds: float, trace: bool) -> tuple:
    """Build rounds for half of `seconds`, then query replays for the other
    half; returns the queries, the run's properties and the metrics."""
    queries = make_queries(wl, seed)
    pairs = _golden_pairs(queries)

    def one_round(traced: bool = False) -> dict:
        cache = run.cache_dir()
        res = run.worker(dict(cache_dir=cache, trace=traced, commands=_commands(wl, cache),
                              golden_pairs=pairs))
        check.commands(res["ops"])
        return dict(res, cache=cache)

    def replay(built: dict, traced: bool = False) -> dict:
        res = run.worker(dict(cache_dir=built["cache"], trace=traced, queries=queries))
        check.products(res["ops"], queries, built["golden"], res["cache_unchanged"])
        return res

    if trace:
        plain = [one_round()]
        plain.append(replay(plain[0]))
        traced = [one_round(True)]
        traced.append(replay(traced[0], True))
        props = dict(rounds=1, replays=1, host_speed=_host_speed(plain + traced))
        return queries, props, _layer_metrics(_layers(*traced), plain, traced)
    imports = run.import_times(SETUPS)
    rounds = _repeat(one_round, seconds / 2)
    replays = _repeat(lambda: replay(rounds[-1]), seconds / 2)
    ops = _ops(rounds + replays)
    metrics = {
        "setup_s": statistics.median(map(_scaled, imports)),
        **_timings(ops),
        **_latency(ops),
        "peak_rss_mb": max(r["rss_kb"] for r in rounds + replays) / 1024,
    }
    props = dict(rounds=len(rounds), replays=len(replays), host_speed=_host_speed(rounds + replays))
    return queries, props, metrics


def load_per_layer() -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["per_layer"]


def _layer_metrics(layers: dict, plain: list, traced: list) -> dict:
    """Per-layer metric values named as in BENCHMARK.json, from the traced
    workers' totals and the results of an untraced and a traced repetition
    of each phase; layers a workload never calls read 0."""
    calls = layers.get("qkring.full_table.calls", 0)
    derived = {
        "qkring.full_table.useful_ratio":
            (calls - layers.get("qkring.full_table.failed", 0)) / calls if calls else 0.0,
        "process.cpu_s": sum(_scaled(op, "cpu") for res in plain for op in res["ops"]),
        "trace.overhead_s": _timings(_ops(traced))["wall_s"] - _timings(_ops(plain))["wall_s"],
    }
    out = {}
    for spec in load_per_layer():
        name = spec["name"]
        out[name] = derived[name] if name in derived else layers.get(name, 0)
    return out


# ---------------------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 golden_counts: dict = GOLDEN_NONZERO) -> dict:
    run = Run(wl.name)
    check = Checker(golden_counts)
    try:
        queries, props, metrics = measure(wl, run, check, seed, seconds, trace)
    finally:
        run.close()
    units = UNITS if not trace else {s["name"]: s["unit"] for s in load_per_layer()}
    return {
        "inputs": dict(input_properties(wl, seed, queries), **props),
        "reasons": check.reasons,
        "result": {
            "correct": check.failed == 0,
            "attempted": check.attempted,
            "failed": check.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _report(name: str, out: dict) -> None:
    res = out["result"]
    print(f"# inputs {json.dumps(out['inputs'], sort_keys=True)}")
    for reason in out["reasons"]:
        print(f"# FAIL {name}: {reason}", file=sys.stderr)
    for key, m in res["metrics"].items():
        print(f"{name:15s} {key:40s} {m['value']:14.6f} {m['unit']}")
    print(f"{name:15s} {'error_rate':40s} {res['failed'] / res['attempted']:14.6f} ratio "
          f"({res['failed']} of {res['attempted']} operations)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qkcalc" / "cli.py").is_file():
        print(f"error: no qkcalc sources under {SRC}", file=sys.stderr)
        return 2
    pin_hash_seed()
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            out = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            _report(name, out)
            results[name] = out["result"]
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
