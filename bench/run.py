"""Benchmark of the acyclo command line, end to end and per layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload census|faces|tournaments --seed N \
        --seconds S --trace 0|1

One closed-loop client in one process: each job is `acyclo.cli.main(argv)`
with stdout captured, and the next job starts when the previous one ends. A
pass runs every job of the workload once; passes repeat until the next one
would end after --seconds (at least three untraced passes). Every report is
checked against an expected value that does not come from the code path
under test; failures are counted, not fatal.

--trace 0 prints the end-to-end metrics. --trace 1 runs each job untraced
and then traced, runs the 8 shards of kalai_census(6,2) on the census
workload, writes the spans to .bench_out/spans-<workload>.jsonl and prints
the per-layer metrics. The last line of stdout is the JSON result; the lines
before it are the same figures for people. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
SHARDS = 8
SHARD_HISTOGRAM = workloads.KALAI_6_2[1]
# Every metric the benchmark prints, with its unit; BENCHMARK.json lists the
# same names (bench/tests check that).
END_TO_END = {"wall_s": "s", "job_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio"}
PER_LAYER = {
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "census.busy_s": "s", "census.forest_nodes": "count", "census.dfs_s": "s",
    "census.us_per_node": "us", "census.torsion_calls": "count",
    "census.torsion_useful_ratio": "ratio", "census.shard_tree_skew": "ratio",
    "census.shard_time_skew": "ratio",
    "faces.busy_s": "s", "faces.feasibility_calls": "count", "faces.feasible_ratio": "ratio",
    "faces.self_s": "s",
    "ratlp.calls": "count", "ratlp.busy_s": "s", "ratlp.elim_s": "s", "ratlp.fm_calls": "count",
    "ratlp.fm_s": "s", "ratlp.simplex_calls": "count", "ratlp.simplex_s": "s",
    "exactalg.snf_calls": "count", "exactalg.snf_s": "s", "exactalg.rank_calls": "count",
    "exactalg.rank_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}
# Shards run on the census workload only; elsewhere the skews read 0.
NO_SHARDS = {"census.shard_tree_skew": 0.0, "census.shard_time_skew": 0.0}


class Run:
    """Jobs attempted and failed in one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")
        print(f"FAILED {label}: {reason}", file=sys.stderr)


def import_fresh():
    """Import acyclo from scratch, so that each set-up pays for it."""
    for name in [m for m in sys.modules if m == "acyclo" or m.startswith("acyclo.")]:
        del sys.modules[name]
    return importlib.import_module("acyclo"), importlib.import_module("acyclo.cli")


def execute(cli, argv, tracer=None, job_id=0):
    """Run one command line; return (exit code or None, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.run_job(job_id, cli.main, list(argv))
        except Exception:  # a traceback is a failed job, not a failed run
            traceback.print_exc(file=err)
            code = None
    elapsed = perf_counter() - start
    if code != 0:
        print(err.getvalue().strip()[-500:], file=sys.stderr)
    return code, elapsed, out.getvalue()


def check(run: Run, job, code, text: str) -> None:
    """Count the job, and a failure if its report lacks the expected value."""
    run.attempted += 1
    if code != 0:
        run.fail(job.label, f"exit code {code}")
        return
    try:
        got = job.observe(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        run.fail(job.label, f"unreadable report ({type(exc).__name__}: {exc})")
        return
    if got != job.expected:
        run.fail(job.label, f"expected {job.expected!r}, got {got!r}")


def run_job(run: Run, cli, job, tracer=None, job_id=0) -> float:
    """Run and check one job; return the seconds it took."""
    code, elapsed, text = execute(cli, job.argv, tracer, job_id)
    if tracer is not None:
        tracer.set_job_value(len(text.encode()))
    check(run, job, code, text)
    return elapsed


def run_pass(run: Run, cli, jobs, tracer=None, first_id=0):
    """Run every job once; with a tracer, run each job again traced straight
    after, so that both times see the same machine state. Returns the
    untraced and the traced seconds of each job."""
    plain, traced = [], []
    for i, job in enumerate(jobs):
        plain.append(run_job(run, cli, job))
        if tracer is not None:
            restore = tracer.install()
            try:
                traced.append(run_job(run, cli, job, tracer, first_id + i))
            finally:
                restore()
    return plain, traced


def job_medians(passes) -> list[float]:
    """Each job's median time over the passes, which keeps a burst of machine
    noise in one pass out of the figures."""
    return [statistics.median(p[j] for p in passes) for j in range(len(passes[0]))]


def run_shards(run: Run, cli) -> dict[str, float]:
    """kalai_census(6,2) split 8 ways: tree and time skew (max over mean)."""
    trees, times = [], []
    merged: dict[int, int] = {}
    for i in range(SHARDS):
        argv = ("kalai-census", "--complete", "6", "2", f"--shard={i}/{SHARDS}")
        code, elapsed, text = execute(cli, argv)
        run.attempted += 1
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            report = json.loads(text)
            trees.append(int(report["hypertree_count"]))
            for k, v in report["torsion_histogram"].items():
                merged[int(k)] = merged.get(int(k), 0) + int(v)
        except (ValueError, KeyError, TypeError) as exc:
            run.fail(f"kalai-census shard {i}/{SHARDS}", str(exc))
            continue
        times.append(elapsed)
    if merged != SHARD_HISTOGRAM:
        run.fail("kalai-census shards", f"merged histogram {merged} != {SHARD_HISTOGRAM}")
    if not trees:
        return dict(NO_SHARDS)
    return {
        "census.shard_tree_skew": max(trees) / statistics.mean(trees),
        "census.shard_time_skew": max(times) / statistics.mean(times),
    }


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate inputs and fill the per-hypergraph caches; timed."""
    start = perf_counter()
    pkg, cli = import_fresh()
    jobs, warm_up = workloads.build(workload, seed, pkg, workdir)
    for call in warm_up:
        call()
    return perf_counter() - start, cli, jobs


def run_passes(run: Run, cli, jobs, seconds: float, tracer=None):
    """Passes until the next would end after `seconds` (at least MIN_PASSES
    untraced, or one traced). Returns the per-pass job times, untraced and
    traced, and the per-layer metrics of each traced pass."""
    plain, traced, layers = [], [], []
    start = perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        times, traced_times = run_pass(run, cli, jobs, tracer, first_id=len(plain) * len(jobs))
        plain.append(times)
        if tracer is not None:
            traced.append(traced_times)
            layers.append(tracing.layer_metrics(tracer.spans[first_span:]))
        elapsed = perf_counter() - start
        enough = len(plain) >= (1 if tracer else MIN_PASSES)
        if enough and elapsed + elapsed / len(plain) > seconds:
            return plain, traced, layers


def measure(args, workdir: Path):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli, jobs = setup(args.workload, args.seed, workdir)
        setup_times.append(elapsed)

    run = Run()
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layers = run_passes(run, cli, jobs, args.seconds, tracer)
    if tracer is None:
        medians = job_medians(plain)
        metrics = {
            "wall_s": sum(medians),
            "job_s.p50": statistics.median(medians),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (run.attempted - len(run.failures)) / run.attempted,
        }
        notes = {"wall_s": f"{len(plain)} passes", "job_s.p50": f"n={len(jobs)} jobs"}
        units = END_TO_END
    else:
        for later in layers[1:]:
            moved = [k for k in later if k.endswith(("_calls", "_nodes")) and later[k] != layers[0][k]]
            if moved:
                print(f"warning: counts differ between traced passes: {moved}", file=sys.stderr)
        metrics = tracing.median_metrics(layers)
        metrics.update(run_shards(run, cli) if args.workload == "census" else NO_SHARDS)
        metrics["trace.wall_s"] = sum(job_medians(traced))
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(job_medians(plain))
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        notes = {"trace.wall_s": f"passes: {len(traced)}, each job untraced then traced"}
        units = PER_LAYER

    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {run.attempted}  failed {failed}  error_rate {failed / run.attempted:g}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {metrics[name]:>14.6g} {unit}{note}")
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "acyclo" / "__init__.py").is_file():
        print(f"error: no acyclo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
