"""Seed records and ungated measurements that sit beside the gated benchmark.

    python3 perfbench/baseline.py digests   # write expected.json
    python3 perfbench/baseline.py summary   # every end-to-end metric, every workload
    python3 perfbench/baseline.py grid      # ungated scaling grid and suite time

``digests`` records, for every job of every workload, the exit code, the
sha256 of stdout and the exact-coefficient digests of every series the job
built or compared.  It was run once at the seed commit; the benchmark's
exactness gate compares against that file.  Re-running it on a later commit
would bless whatever that commit prints, so do it only when the CLI output
is meant to change.

``summary`` runs ``run.py`` on every workload (tracing off, seed 1, for
``run_seconds`` of ``BENCHMARK.json``) and prints each end-to-end metric
with its unit, plus the failed-job fraction.

``grid`` times ``lacunary verify <identity> --order N`` for every identity
at orders 12/24/48/64: the wall time of one cold job, and the time spent
after import (``cli.main`` in a traced job, comparable with in-process
profiles).  It also times the tier-1 test suite.  Neither is gated: a new
test would read as a regression.  The result is printed as JSON for
``baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from time import perf_counter

import run

GRID_ORDERS = (12, 24, 48, 64)
GRID_IDENTITIES = (
    "doetsch", "main", "tree-gf-routes", "one-cycle-routes", "w-routes",
    "hypergeom", "lemma-fm-i", "lemma-fm-ii", "corollary-ecor", "dT-du",
)


def record_digests() -> int:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    runner = run.JobRunner({}, perf_counter() + 3600)
    jobs = sorted({run.SETUP_JOB, *(j for js in run.WORKLOADS.values() for j in js)})
    records = {}
    for job in jobs:
        plain = runner.run(job)
        counted = runner.run(job, "count")
        if plain.stdout != counted.stdout or plain.code != counted.code:
            print(f"{job}: traced output differs from the plain run", file=sys.stderr)
            return 1
        records[job] = {
            "exit": plain.code,
            "stdout_sha256": hashlib.sha256(plain.stdout).hexdigest(),
            "stdout_bytes": len(plain.stdout),
            "series": counted.trace["digests"],
        }
        print(f"{job}: exit {plain.code}, {len(plain.stdout)} bytes, "
              f"{len(counted.trace['digests'])} series", flush=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump({"jobs": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def summary() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    rows = []
    for workload in sorted(run.WORKLOADS):
        cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
        *detail, last = proc.stdout.strip().splitlines()
        print("\n".join(detail), flush=True)
        rows.append((workload, json.loads(last)))
    print(f"\n{'workload':22s} " + " ".join(f"{m:>14s}" for m in run.END_TO_END_UNITS) + "  failed_frac")
    for workload, result in rows:
        cells = " ".join(
            f"{result['metrics'][m]['value']:>11.4f} {result['metrics'][m]['unit']:2s}"
            for m in run.END_TO_END_UNITS
        )
        print(f"{workload:22s} {cells}  {result['failed']}/{result['attempted']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def grid() -> int:
    runner = run.JobRunner({}, perf_counter() + 3600)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    runner.run(run.SETUP_JOB)
    out: dict = {"verify_wall_s": {}, "verify_in_process_s": {}}
    for identity in GRID_IDENTITIES:
        cold, inside = {}, {}
        for order in GRID_ORDERS:
            job = f"verify {identity} --order {order}"
            plain, timed = runner.run(job), runner.run(job, "time")
            if plain.code != 0 or timed.code != 0:
                print(f"{job} exited {plain.code}/{timed.code}", file=sys.stderr)
                return 1
            cold[str(order)] = round(plain.wall_s, 4)
            trace = timed.trace
            inside[str(order)] = round(trace["total_s"] - trace["stage_self"]["cli.import"], 4)
        out["verify_wall_s"][identity] = cold
        out["verify_in_process_s"][identity] = inside
        print(identity, cold, inside, file=sys.stderr, flush=True)
    out["host_ref_s"] = round(run.host_ref_s(), 4)
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=run.ROOT, env=dict(runner.env), capture_output=True, text=True,
    )
    out["tier1_suite_s"] = round(perf_counter() - start, 2)
    out["tier1_suite_result"] = proc.stdout.strip().splitlines()[-1]
    print(json.dumps(out, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("digests", "summary", "grid"):
        sub.add_parser(command)
    args = parser.parse_args(argv)
    return {"digests": record_digests, "summary": summary, "grid": grid}[args.command]()


if __name__ == "__main__":
    sys.exit(main())
