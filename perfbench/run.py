"""Benchmark of the ``lacunary`` command line, run as cold CLI jobs.

    python3 perfbench/run.py --workload main-64 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout (``src/lacunary`` must exist; nothing
needs building).  One client process runs the workload's jobs one at a time
in a closed loop: each job is a fresh interpreter running ``lacunary ...``
exactly as the installed entry point does, and the next job starts when the
previous one has exited.  A *pass* runs every job of the workload once, in
an order drawn from ``--seed``; the inputs themselves are fixed by the
workload's name.  Passes repeat until ``--seconds`` have been measured;
at the end, the jobs of one more pass run if their median time still fits.

Every job's exit code and stdout are compared byte for byte (by sha256) with
the values recorded at the seed commit in ``expected.json``; a difference,
a crash or a timeout counts as a failed job.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` reports the per-layer metrics: each round runs one plain pass,
one pass under ``tracer.py time`` (spans at the module boundaries) and one
under ``tracer.py count`` (polynomial/rational counters and exact digests of
every series built and compared, checked against ``expected.json``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give each metric with its
unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(BENCH_DIR, "tracer.py")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# What the installed ``lacunary`` console script runs.
CLI_ENTRY = "from lacunary.cli import run; run()"

ROUTE_IDENTITIES = ("doetsch", "tree-gf-routes", "one-cycle-routes", "w-routes", "hypergeom", "dT-du")
# Job groups: each stresses different layers.  The second workload runs three
# groups in one pass, so that a pass averages over more jobs and each run
# measures long enough for this shared host's slow phases to even out.
GROUPS = {
    "routes-48": tuple(f"verify {name} --order 48" for name in ROUTE_IDENTITIES),
    "umbral-64": tuple(
        f"verify {name} --order 64" for name in ("lemma-fm-i", "lemma-fm-ii", "corollary-ecor")
    ),
    # hermite stays at n=400: n=500 exits 1 with RecursionError at the seed.
    "census-hermite": (
        "oracle graphs --n 4",
        "oracle wtrees --n 5",
        "hermite --kind H --n 400",
        "expand rhs-main --order 24",
    ),
}
WORKLOADS = {
    "main-64": ("verify main --order 64",),
    "routes-umbral-census": GROUPS["routes-48"] + GROUPS["umbral-64"] + GROUPS["census-hermite"],
}
# A cold interpreter that imports the package and does no series work.  It
# runs four times before every pass, so set-up samples see the same host
# speed as the passes (the host's speed drifts by up to 1.5x over minutes).
SETUP_JOB = "verify lemma-fm-ii --order 0"
SETUP_PER_PASS = 4
# Every run must exit within 180 s; jobs still running at this point are killed.
DEADLINE_S = 170.0

# Per-layer metrics: metric name -> span name.
STAGE_TIMES = {
    "identities.w_s": "identities.w",
    "identities.w_fixed_point_s": "identities.w_fixed_point",
    "identities.w_closed_form_s": "identities.w_closed_form",
    "identities.tree_gf_s": "identities.tree_gf",
    "identities.exp_T_s": "identities.exp_T",
    "identities.one_cycle_s": "identities.one_cycle",
    "identities.multi_cycle_s": "identities.multi_cycle",
    "identities.rhs_products_s": "identities.rhs_products",
    "identities.lhs_s": "identities.lhs",
    "identities.tree_gf_integral_s": "identities.tree_gf_integral",
    "identities.tree_gf_explicit_s": "identities.tree_gf_explicit",
    "identities.one_cycle_exp_log_s": "identities.one_cycle_exp_log",
    "identities.hypergeom_series_s": "identities.hypergeom_series",
    "identities.rhs_doetsch_s": "identities.rhs_doetsch",
    "identities.checks_s": "identities.checks",
    "umbral.exp_of_m_power_s": "umbral.exp_of_m_power",
    "umbral.mexpr_mul_s": "umbral.mexpr_mul",
    "umbral.eval_s": "umbral.eval",
    "umbral.checks_s": "umbral.checks",
    "hermite.h_s": "hermite.h",
    "hermite.H_s": "hermite.H",
    "oracle.marked_graphs_s": "oracle.marked_graphs",
    "oracle.w_trees_s": "oracle.w_trees",
    "oracle.census_check_s": "oracle.census_check",
    "report.compare_s": "report.compare",
    "cli.import_s": "cli.import",
    "cli.render_s": "cli.render",
}
SERIES_OPS = ("mul", "inverse", "sqrt", "exp", "log", "pow", "add", "div_z")
KERNEL_TIMES = {f"series.{op}_s": f"series.{op}" for op in SERIES_OPS}
KERNEL_TIMES["poly.str_s"] = "poly.str"
CALL_COUNTS = {f"series.{op}_n": f"series.{op}" for op in SERIES_OPS}
CALL_COUNTS["umbral.mexpr_mul_n"] = "umbral.mexpr_mul"
WORK_COUNTS = (
    "series.mul_pairs_n",
    "poly.mul_n",
    "poly.add_n",
    "rational.mul_n",
    "oracle.involutions_n",
    "oracle.w_trees_n",
    "report.coeffs_compared_n",
)
STAGE_LAYERS = ("cli", "identities", "umbral", "hermite", "oracle", "report")
KERNEL_LAYERS = ("series", "poly")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_tail": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in STAGE_TIMES}
    units.update({name: "s" for name in KERNEL_TIMES})
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({name: "count" for name in WORK_COUNTS})
    units["series.mul_kept_frac"] = "ratio"
    units["rational.max_bits"] = "bits"
    units.update({f"stage_share.{layer}": "ratio" for layer in STAGE_LAYERS})
    units.update({f"kernel_share.{layer}": "ratio" for layer in KERNEL_LAYERS})
    units.update({"cli.cpu_s": "s", "trace_overhead_frac": "ratio", "host_ref_s": "s"})
    return units


@dataclass
class JobResult:
    job: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    trace: dict | None


@dataclass
class PassResult:
    """One run of every job of a workload."""

    jobs: list[JobResult]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.jobs)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.jobs)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.jobs)


class JobRunner:
    """Runs cold CLI jobs one at a time and checks each against the seed."""

    def __init__(self, expected: dict, deadline: float):
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.problems: list[str] = []
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": SRC,
            "PYTHONHASHSEED": "0",
            "PYTHONPYCACHEPREFIX": os.path.join(WORK_DIR, "pycache"),
        }
        self.trace_path = os.path.join(WORK_DIR, "trace.json")
        self.stderr_path = os.path.join(WORK_DIR, "stderr.txt")

    def run(self, job: str, mode: str | None = None) -> JobResult:
        """Run ``lacunary <job>``; ``mode`` "time"/"count" runs it under the tracer."""
        args = job.split()
        if mode is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            cmd = [sys.executable, TRACER, mode, self.trace_path, "--", *args]
            if os.path.exists(self.trace_path):
                os.remove(self.trace_path)
        self.attempted += 1
        with open(self.stderr_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - start
                timer.cancel()
                proc.stdout.close()
                proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if mode is not None and os.path.exists(self.trace_path):
            with open(self.trace_path) as fh:
                trace = json.load(fh)
        problem = self._check(job, proc.returncode, out, mode, trace)
        if problem:
            with open(self.stderr_path, "rb") as fh:
                tail = fh.read()[-300:].decode(errors="replace").strip()
            self.problems.append(f"{job} [{mode or 'plain'}]: {problem} {tail}".strip())
        cpu = usage.ru_utime + usage.ru_stime
        return JobResult(job, wall, cpu, usage.ru_maxrss / 1024, proc.returncode, out, trace)

    def _check(self, job, code, out, mode, trace) -> str | None:
        expected = self.expected.get(job)
        if expected is None:
            return "no result recorded at the seed"
        if code < 0:
            return f"killed by signal {-code} (timeout or crash)"
        if code != expected["exit"]:
            return f"exit {code}, expected {expected['exit']}"
        if hashlib.sha256(out).hexdigest() != expected["stdout_sha256"]:
            return f"stdout differs from the seed ({len(out)} bytes, expected {expected['stdout_bytes']})"
        if mode is not None and trace is None:
            return "tracer wrote no result"
        if mode == "count":
            seed = expected["series"]
            got = trace["digests"]
            wrong = [k for k, d in got.items() if k in seed and seed[k] != d]
            missing = [k for k in seed if k.startswith("compare(") and k not in got]
            if wrong or missing:
                return f"series coefficients differ from the seed: {sorted(wrong + missing)[:3]}"
        return None


def host_ref_s() -> float:
    """Time a fixed pure-Python Fraction loop, a yardstick for host speed."""
    start = perf_counter()
    for i in range(1, 12001):
        Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1) - Fraction(1, i)
    return perf_counter() - start


def shuffled(jobs: tuple[str, ...], rng: random.Random) -> list[str]:
    order = list(jobs)
    rng.shuffle(order)
    return order


def run_round(runner: JobRunner, jobs: tuple[str, ...], rng: random.Random):
    """A plain, a timed and a counted pass, interleaved job by job.

    Running the three modes of one job back to back keeps drift in host
    speed out of the plain-versus-timed comparison.
    """
    plain, timed, counted = PassResult([]), PassResult([]), PassResult([])
    for job in shuffled(jobs, rng):
        plain.jobs.append(runner.run(job))
        timed.jobs.append(runner.run(job, "time"))
        counted.jobs.append(runner.run(job, "count"))
    return plain, timed, counted


def repeat(seconds: float, deadline: float, step) -> list:
    """Call ``step`` at least once, and again while another call fits in ``seconds``.

    The next call is predicted to last as long as the median call so far, so
    a run measures close to ``seconds`` without overrunning it.
    """
    start = perf_counter()
    results, durations = [], []
    while True:
        began = perf_counter()
        results.append(step())
        durations.append(perf_counter() - began)
        predicted_end = perf_counter() + statistics.median(durations)
        if predicted_end - start > seconds or predicted_end > deadline:
            return results


def measure_end_to_end(runner, jobs, rng, seconds, lines) -> dict:
    """Run passes, then single jobs, until nothing more fits in ``seconds``.

    Each pass starts with the set-up calls.  A job is started only if its
    median time so far still fits, so the run fills ``seconds`` with whole
    passes and, at the end, the jobs of a partial pass that fit.
    """
    start = perf_counter()
    setup: list[float] = []
    samples: dict[str, list[JobResult]] = {job: [] for job in jobs}
    passes: list[PassResult] = []
    hosts: list[float] = []

    def fits(job: str) -> bool:
        end = perf_counter() + statistics.median(r.wall_s for r in samples[job])
        return end - start <= seconds and end <= runner.deadline

    while not passes or any(fits(job) for job in jobs):
        setup.extend(runner.run(SETUP_JOB).wall_s for _ in range(SETUP_PER_PASS))
        done = PassResult([])
        for job in shuffled(jobs, rng):
            if passes and not fits(job):
                continue
            done.jobs.append(runner.run(job))
            samples[job].append(done.jobs[-1])
        if len(done.jobs) == len(jobs):
            passes.append(done)
            hosts.append(host_ref_s())

    def typical(members) -> float:
        # The time of a typical pass: each job's median, summed.
        return sum(statistics.median(r.wall_s for r in samples[job]) for job in members)

    walls = [p.wall_s for p in passes]
    counts = sorted({len(v) for v in samples.values()})
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": typical(jobs),
        # A run holds 3 to 9 passes, too few for any percentile to have ten
        # samples beyond it, so the tail is the slowest pass.
        "wall_s_tail": max(walls),
        "peak_rss_mb": max(r.rss_mb for v in samples.values() for r in v),
    }
    njobs = sum(len(v) for v in samples.values())
    lines += [
        f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} cold no-work calls ({SETUP_JOB}), {SETUP_PER_PASS} before each pass",
        f"  wall_s       {metrics['wall_s']:.4f} s   sum over jobs of each job's median of {'-'.join(map(str, counts))} samples",
        f"  wall_s_tail  {metrics['wall_s_tail']:.4f} s   slowest of {len(walls)} whole passes",
        f"  passes       {' '.join(f'{w:.3f}' for w in walls)} s",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   max over {njobs} jobs",
        f"  failed_frac  {len(runner.problems)}/{runner.attempted}   jobs that failed / jobs attempted (incl. set-up calls)",
        f"  cpu_s        {statistics.median(p.cpu_s for p in passes):.4f} s   median of {len(passes)} passes, user+sys (ungated)",
        f"  host_ref_s   {statistics.median(hosts):.4f} s   median of {len(hosts)} (ungated)",
    ]
    for group, members in GROUPS.items():
        if set(members) <= set(jobs) != set(members):
            lines.append(f"  {group:14s} {typical(members):.4f} s   part of wall_s (ungated)")
    return metrics


def _sum_traces(results: list[JobResult], key: str) -> Counter:
    total: Counter = Counter()
    for r in results:
        if r.trace is not None:
            total.update(r.trace[key])
    return total


def layer_metrics(plain: PassResult, timed: PassResult, counted: PassResult, host: float) -> dict:
    """Per-layer metrics of one round: the three passes and the host yardstick."""
    stage = _sum_traces(timed.jobs, "stage_self")
    kernel = _sum_traces(timed.jobs, "kernel_self")
    calls = _sum_traces(timed.jobs, "calls")
    counts = _sum_traces(counted.jobs, "counts")
    total = sum(r.trace["total_s"] for r in timed.jobs if r.trace is not None)
    out = {name: stage[span] for name, span in STAGE_TIMES.items()}
    out.update({name: kernel[span] for name, span in KERNEL_TIMES.items()})
    out.update({name: calls[span] for name, span in CALL_COUNTS.items()})
    out.update({name: counts[name] for name in WORK_COUNTS})
    pairs = counts["series.mul_pairs_n"]
    out["series.mul_kept_frac"] = counts["series.mul_kept_n"] / pairs if pairs else 0.0
    out["rational.max_bits"] = max(
        (r.trace["counts"].get("rational.max_bits", 0) for r in counted.jobs if r.trace), default=0
    )
    for layer in STAGE_LAYERS:
        own = sum(t for span, t in stage.items() if span.split(".")[0] == layer)
        out[f"stage_share.{layer}"] = own / total if total else 0.0
    for layer in KERNEL_LAYERS:
        own = sum(t for span, t in kernel.items() if span.split(".")[0] == layer)
        out[f"kernel_share.{layer}"] = own / total if total else 0.0
    out["cli.cpu_s"] = plain.cpu_s
    out["trace_overhead_frac"] = timed.wall_s / plain.wall_s - 1
    out["host_ref_s"] = host
    return out


def measure_per_layer(runner, jobs, rng, seconds, lines, unsteady) -> dict:
    rounds = repeat(
        seconds, runner.deadline, lambda: layer_metrics(*run_round(runner, jobs, rng), host_ref_s())
    )
    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        values = [r[name] for r in rounds]
        # Only a run of two or more rounds can check this; where a run holds
        # one round, only a comparison of runs does.
        if unit in ("count", "bits"):
            if len(set(values)) != 1:
                unsteady.append(f"count {name} differs between rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
        lines.append(f"  {name:32s} {metrics[name]:.6g} {unit}   over {len(values)} round(s)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lacunary", "cli.py")):
        print(f"perfbench: no lacunary sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)["jobs"]
    os.makedirs(WORK_DIR, exist_ok=True)
    runner = JobRunner(expected, perf_counter() + DEADLINE_S)
    rng = random.Random(args.seed)
    jobs = WORKLOADS[args.workload]
    # Compile the package's bytecode once; every timed job then starts warm on disk.
    runner.run(SETUP_JOB)

    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs/pass={len(jobs)}"]
    unsteady: list[str] = []  # counts that differ between the rounds of this run
    if args.trace:
        values = measure_per_layer(runner, jobs, rng, args.seconds, lines, unsteady)
        units = per_layer_units()
    else:
        values = measure_end_to_end(runner, jobs, rng, args.seconds, lines)
        units = END_TO_END_UNITS
    lines += [f"  FAILED {problem}" for problem in runner.problems + unsteady]
    print("\n".join(lines))
    result = {
        "correct": not runner.problems and not unsteady,
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
