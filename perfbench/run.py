"""The qktoledo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the checkout it lives in (``src/`` next
to this directory, put on ``PYTHONPATH`` because the package need not be
installed).  Workloads are defined in ``workloads.py``; each is one closed-loop
client, the next op starting only when the previous one has finished.

With ``--trace 0`` it times set-up in several fresh worker processes, runs the
timed loop in another one, and reports the end-to-end metrics.  With
``--trace 1`` it runs the loop untraced for half the time and traced for the
other half, and reports the per-layer metrics and the tracing overhead; the
spans go to ``.bench_out/`` in the checkout.  Either way every op's output is
checked, human-readable lines come first, and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Times are
scaled to a nominal machine speed (see ``calibrate.py``); the raw ones are
printed too.  The run pins itself and its children to one CPU.

``suite.py`` runs every workload for several seeds and summarizes the
spread; ``results/`` holds the baseline it recorded.  The benchmark's own
tests: ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import SPAWN, scaled
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 5            # fresh processes timed for setup_s
# Each wait is bounded so that a hung worker ends the run well within the
# three minutes a run may take.
SETUP_TIMEOUT_S = 30
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)


class BenchError(Exception):
    """The run could not produce a result."""


# -- statistics --------------------------------------------------------------

def percentile(values, p: float) -> float:
    """The p-th percentile, interpolating linearly between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = p / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_above(n: int, p: float) -> int:
    """How many of n samples lie above the position of the p-th percentile."""
    return n - 1 - math.floor(p / 100 * (n - 1)) if n else 0


def tail_percentile(n: int):
    """The highest percentile of the ladder with at least ten samples above it."""
    for p in PERCENTILE_LADDER:
        if samples_above(n, p) >= 10:
            return p
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- metadata ---------------------------------------------------------------------

def _python_files(directory: Path):
    return sorted(directory.rglob("*.py")) if directory.is_dir() else []


def bench_cpu() -> int:
    """The one CPU that ``main`` pins itself, its workers and their children to."""
    return max(os.sched_getaffinity(0))


def run_meta(workload: str, seed: int) -> dict:
    """Python, CPUs, revision, seed and code size, reported with every result."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in _python_files(ROOT / "src"):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    why = None
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        reasons = {w["name"]: w["why"]
                   for w in json.loads(spec.read_text())["workloads"]}
        why = reasons.get(workload)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": bench_cpu(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "why": why,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in _python_files(ROOT / "src")),
        "tests_lines": sum(len(p.read_text().splitlines())
                           for p in _python_files(ROOT / "tests")),
    }


# -- worker processes ---------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, *extra):
    """Start a worker and wait for READY: (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line != "READY\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, setup


def finish_worker(proc, timeout: float) -> str:
    """Wait for a started worker; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    return out


def worker_result(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


# -- the two kinds of run --------------------------------------------------------------

def end_to_end_run(args):
    """Set-up in SETUP_RUNS fresh processes, then the timed loop in another.

    Op times and set-up times are scaled to the nominal machine speed by a
    ``calibrate`` reference timed before and after each.
    """
    setups, refs = [], [SPAWN.time()]
    for _ in range(SETUP_RUNS):
        proc, setup = start_worker(args, "--setup-only")
        finish_worker(proc, SETUP_TIMEOUT_S)
        setups.append(setup)
        refs.append(SPAWN.time())
    proc, _ = start_worker(args)
    raw = worker_result(finish_worker(proc, args.seconds * 2 + SETUP_TIMEOUT_S))
    loop = raw["loop"]
    lat = scaled(loop["latencies_s"], loop["refs_s"], loop["nominal_s"])
    if not lat:
        raise BenchError("no op completed")
    tail = tail_percentile(len(lat))
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(scaled(setups, refs, SPAWN.nominal_s)), "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024, "MiB"),
    }
    unscaled = loop["latencies_s"]
    notes = [f"ops: {len(lat)} in {loop['wall_s']:.3f} s; "
             f"{samples_above(len(lat), 90)} samples above p90; highest "
             f"percentile with ten samples above it: p{tail}",
             f"unscaled: {len(unscaled) / loop['wall_s']:.6g} ops/s over the "
             f"wall time, p50 {percentile(unscaled, 50) * 1e3:.6g} ms, "
             f"p90 {percentile(unscaled, 90) * 1e3:.6g} ms, set-up "
             + ", ".join(f"{s:.4f}" for s in setups) + " s",
             f"reference {loop['reference']}: median "
             f"{statistics.median(loop['refs_s']) * 1e3:.4g} ms (nominal "
             f"{loop['nominal_s'] * 1e3:g} ms); bare interpreter for set-up: "
             f"median {statistics.median(refs) * 1e3:.4g} ms (nominal "
             f"{SPAWN.nominal_s * 1e3:g} ms)"]
    if tail is None or tail < 90:
        notes.append("warning: fewer than ten samples above p90")
    return raw, metrics, notes


def traced_run(args):
    """Untraced then traced halves of the loop; per-layer metrics and overhead.

    The per-layer times are as measured, not scaled: they compare layers
    within one run.  The two throughputs are scaled like ``ops_per_s``.
    """
    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    proc, _ = start_worker(args, "--spans", str(spans))
    raw = worker_result(finish_worker(proc, args.seconds * 2 + SETUP_TIMEOUT_S))
    metrics = {name: tuple(pair) for name, pair in raw["layers"].items()}
    imports = raw["imports"]
    if not imports["import_s"] or not imports["process_s"]:
        raise BenchError("the import-time children produced no timings")
    metrics["cli.import_ms"] = (statistics.median(imports["import_s"]) * 1e3, "ms")
    metrics["cli.process_ms"] = (statistics.median(imports["process_s"]) * 1e3, "ms")
    untraced, traced = (scaled(raw[k]["latencies_s"], raw[k]["refs_s"],
                               raw[k]["nominal_s"])
                        for k in ("untraced", "traced"))
    if not untraced or not traced:
        raise BenchError("no op completed")
    untraced_rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    op_ms = metrics["trace.op_ms"][0]
    iota = metrics["lifting.iota_star_bplus_incl_ms"][0]
    notes = [f"ops: {len(untraced)} untraced, {len(traced)} traced",
             f"iota_star_bplus with its children: {iota:.3f} ms of "
             f"{op_ms:.3f} ms per traced op ({iota / op_ms:.1%})" if op_ms else
             "no traced op completed",
             "slowest imports (self us): " + ", ".join(
                 f"{name} {us}" for name, us in imports["slowest_modules_us"]),
             f"spans written to {spans.relative_to(ROOT)}"]
    if raw["unwrapped"]:
        notes.append("not wrapped, the program no longer defines them (their "
                     "metrics read 0): " + ", ".join(raw["unwrapped"]))
    return raw, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qktoledo" / "cli.py").is_file():
        print(f"error: no qktoledo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process, the workers and their children, so the
    # reference loop times the CPU the ops run on.
    os.sched_setaffinity(0, {bench_cpu()})

    try:
        raw, metrics, notes = (traced_run if args.trace else end_to_end_run)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: one closed-loop client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':42s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} ops failed)")
    for reason in raw["failures"]:
        print(f"  failure: {reason}")
    for note in notes:
        print(f"  {note}")
    print("meta: " + json.dumps(run_meta(args.workload, args.seed)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
