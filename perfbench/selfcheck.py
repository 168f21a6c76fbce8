"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at minimal size, with tracing off and on, and asserts
that each metric BENCHMARK.json names is emitted with its unit and that the
run is correct.  Then asserts that wrong golden values are reported as
failures: a wrong nonzero-constant count through a whole workload run, a
query that has to build its table, and a wrong product answer, text and
json, exact and mod-p, through the answer checks.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import sys
import tempfile

import run as bench

SMALL = {
    "exact-build": ("P1", "LG(2,4)"),
    "modp-build": ("Gr(2,6)",),
}


def expect(cond: bool, what) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def small(name: str) -> bench.Workload:
    wl = bench.WORKLOADS[name]
    spaces = tuple(sb for sb in wl.spaces if sb[0] in SMALL[name])
    return dataclasses.replace(wl, spaces=spaces, queries=30)


def check_metrics(spec: dict) -> None:
    for name in bench.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out = bench.run_workload(small(name), seed=1, seconds=0.0, trace=trace)
            res = out["result"]
            expect(res["correct"] and res["failed"] == 0, (name, trace, out["reasons"]))
            expect(res["attempted"] >= 1, (name, trace, "nothing attempted"))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == want, (name, trace, set(want) ^ set(got)))
            for k, m in res["metrics"].items():
                expect(isinstance(m["value"], (int, float)), (name, k))
            print(f"ok   {name} trace={int(trace)}: {len(got)} metrics with units")


def check_wrong_count() -> None:
    wrong = dict(bench.GOLDEN_NONZERO, P1=bench.GOLDEN_NONZERO["P1"] + 1)
    out = bench.run_workload(small("exact-build"), seed=1, seconds=0.0, trace=False, golden_counts=wrong)
    res = out["result"]
    # one failure per build round, each on P1's count
    expect(not res["correct"] and res["failed"] >= 1, res)
    expect(all("table P1: nonzero constants 5, golden 6" in r for r in out["reasons"]), out["reasons"])
    print("ok   a wrong nonzero-constant golden fails the run")


def check_query_build() -> None:
    wl = small("exact-build")
    queries = bench.make_queries(wl, seed=1)[:3]
    run = bench.Run("selfcheck")
    check = bench.Checker(bench.GOLDEN_NONZERO)
    try:
        # an empty cache dir: the first query on each space builds its table
        res = run.worker(dict(cache_dir=run.cache_dir(), trace=False, queries=queries))
        check.products(res["ops"], queries, {}, res["cache_unchanged"])
    finally:
        run.close()
    expect(all(op["rc"] == 0 for op in res["ops"]), res["ops"])
    built = sum("the query built a table" in r for r in check.reasons)
    expect(built == len({q[0] for q in queries}), check.reasons)
    print("ok   a query that builds its table fails")


def _tamper(answer: list) -> list:
    """Change one coefficient of the top (nonzero) q-layer of one entry."""
    bad = copy.deepcopy(answer)
    payload = bad[0][1]
    if isinstance(payload[-1], dict):
        payload[-1]["terms"][0][1] += 1
    else:
        payload[-1] += 1
    return bad


def check_wrong_answer() -> None:
    from answers import check_product, golden_answer
    from qkcalc import cli
    from qkcalc.poset import build_cominuscule
    from qkcalc.qkring import full_table, make_field

    bench.RUNS.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="selfcheck-", dir=bench.RUNS)
    try:
        for space, backend, u, v in (("P1", "exact", "1", "1"), ("Gr(2,6)", "mod-p", "1", "2")):
            poset = build_cominuscule(space)
            # a truncation above the CLI's: trailing zero layers must not matter
            table = full_table(poset, D=8, backend=make_field(poset, backend))
            ui = poset.index_of(poset.parse_shape(u))
            vi = poset.index_of(poset.parse_shape(v))
            golden = golden_answer(table, ui, vi)
            for fmt in ("text", "json"):
                buf = io.StringIO()
                argv = ["product", space, u, v, "--backend", backend, "--cache-dir", cache, "--format", fmt]
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                expect(rc == 0, (argv, rc))
                exact = backend == "exact"
                expect(check_product(poset, exact, u, v, fmt, buf.getvalue(), golden) is None, (space, fmt))
                reason = check_product(poset, exact, u, v, fmt, buf.getvalue(), _tamper(golden))
                expect(reason is not None, (space, fmt, "tampered answer passed"))
                print(f"ok   a wrong {backend} {fmt} product answer is caught: {reason}")
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def main() -> int:
    bench.pin_hash_seed()
    sys.path.insert(0, str(bench.SRC))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_wrong_count()
    check_query_build()
    check_wrong_answer()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
