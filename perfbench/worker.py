"""One program process of the benchmark: runs qkcalc commands in-process
through `qkcalc.cli.main`, then sends its list of product queries once, as
one closed-loop client.

Usage: python3 worker.py JOB.json   (PYTHONPATH must reach qkcalc)

The job file names the cache dir, the commands, the queries and where to
write results.  Every operation is timed around `cli.main` alone; writing
results, computing golden answers and hashing the cache happen between
operations, outside the timed regions.  Operations run in blocks, each
followed by runs of the reference kernel (refkernel.py): one command and
then COMMAND_REFS kernel runs, or QUERY_BLOCK queries and then one kernel
run.  An operation's `ref` is the mean of the kernel times just before and
just after its block.

Outputs in the job's out_dir:
  ops.jsonl     one line per operation: kind, space, exit code, wall and
                CPU seconds, reference kernel seconds, captured
                stdout/stderr, whether a query built a table
  golden.jsonl  golden product answers computed from the tables the table
                commands built (see answers.py)
  result.json   peak RSS, whether the cache dir's files were unchanged by
                the queries, and the per-layer totals when tracing
  spans.json    every span, when tracing
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from qkcalc import cli

import refkernel
from answers import golden_answer
from tracer import Tracer

# reference kernel runs after each command: commands run for up to seconds,
# so the host speed around them is sampled more
COMMAND_REFS = 2
# queries per reference kernel run; a count, not a duration, so that every
# replay of a list allocates in the same order and the collector's pauses
# fall on the same queries
QUERY_BLOCK = 32


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _snapshot(cache_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(cache_dir)):
        with open(os.path.join(cache_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Worker:
    def __init__(self, job: dict):
        self.job = job
        self.cache_dir = job["cache_dir"]
        self.tracer = Tracer() if job["trace"] else None
        if self.tracer:
            self.tracer.install()
        self.op = 0
        # count the CLI's build attempts and keep the table object
        # full_table hands back to it: golden answers are read from that
        # object, never from the JSON cache
        self.builds = 0
        self.captured = None
        build = cli.full_table

        def capture(*args, **kwargs):
            self.builds += 1
            self.captured = build(*args, **kwargs)
            return self.captured

        cli.full_table = capture

    def run_cli(self, argv: list) -> dict:
        """One timed `cli.main` call; `built` says whether it called
        `cli.full_table`, whose last result stays in self.captured."""
        out, err = io.StringIO(), io.StringIO()
        self.captured = None
        builds = self.builds
        if self.tracer:
            self.tracer.op = self.op
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0 = _cpu_s()
            t0 = perf_counter()
            if self.tracer:
                rc = self.tracer.call("cli.main", cli.main, argv)
            else:
                rc = cli.main(argv)
            dt = perf_counter() - t0
            cpu = _cpu_s() - c0
        self.op += 1
        return dict(rc=rc, dt=dt, cpu=cpu, out=out.getvalue(), err=err.getvalue()[-2000:],
                    built=self.builds != builds)

    def ref_after(self, runs: int) -> float:
        """Run the reference kernel `runs` times; return the mean kernel time
        around the operations since the previous call."""
        after = [refkernel.timed() for _ in range(runs)]
        ref = statistics.mean(self.ref + after)
        self.ref = after
        return ref

    def run(self) -> None:
        job = self.job
        out_dir = job["out_dir"]
        pairs = job["golden_pairs"]
        queries = job["queries"]
        self.ref = [refkernel.timed() for _ in range(COMMAND_REFS)]
        with open(os.path.join(out_dir, "ops.jsonl"), "w") as ops, \
                open(os.path.join(out_dir, "golden.jsonl"), "w") as golden:
            for cmd in job["commands"]:
                rec = self.run_cli(cmd["argv"])
                rec["ref"] = self.ref_after(COMMAND_REFS)
                del rec["built"]
                ops.write(json.dumps(dict(kind=cmd["kind"], space=cmd["space"], **rec)) + "\n")
                if cmd["kind"] == "table" and rec["rc"] == 0 and cmd["space"] in pairs:
                    # a table command that did not build leaves no golden
                    # answers; its queries then fail as "no golden answer"
                    for ui, vi in pairs[cmd["space"]] if self.captured is not None else ():
                        ans = golden_answer(self.captured, ui, vi)
                        golden.write(json.dumps([cmd["space"], ui, vi, ans]) + "\n")
            before = _snapshot(self.cache_dir) if queries else {}
            block = []
            for i, (space, u, v, fmt, backend, *_) in enumerate(queries):
                argv = ["product", space, u, v, "--backend", backend, "--cache-dir", self.cache_dir,
                        "--format", fmt]
                block.append(dict(kind="product", space=space, i=i, **self.run_cli(argv)))
                if len(block) == QUERY_BLOCK or i == len(queries) - 1:
                    ref = self.ref_after(1)
                    for rec in block:
                        ops.write(json.dumps(dict(rec, ref=ref)) + "\n")
                    block = []
            after = _snapshot(self.cache_dir) if queries else {}
        result = {
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cache_unchanged": before == after,
            "layers": self.tracer.summary() if self.tracer else None,
        }
        if self.tracer:
            self.tracer.dump(os.path.join(out_dir, "spans.json"))
        with open(os.path.join(out_dir, "result.json"), "w") as fh:
            json.dump(result, fh)


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    Worker(job).run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
