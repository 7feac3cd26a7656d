"""One workload process: set up, hand-shake, then a closed loop of timed ops.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It prints ``READY`` once set-up is done (import, one untimed warm-up op), so
the parent can time set-up from process start to the first timed op, and
prints one JSON line with the raw results when the loop ends.  With
``--setup-only`` it exits right after ``READY``.

The warm-up op is op 0, and the first timed op is op 0 again, so every run
re-runs one argv and requires byte-identical stdout (the determinism contract).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import LOOP, SPAWN
from tracer import OP_SPAN, TRACE_MARKER, Tracer, layer_metrics, parse_importtime
from workloads import IN_PROCESS, WORKLOADS, op_at

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 30
MAX_REPORTED_FAILURES = 5


def run_in_process(argv):
    """``qktoledo.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    from qktoledo import cli
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except SystemExit as exc:       # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_child(argv, prefix=("-m", "qktoledo.cli")):
    """One fresh ``python -m qktoledo.cli`` process: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, *prefix, *argv], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, argv, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REPORTED_FAILURES:
                self.reasons.append(f"{' '.join(argv)}: {reason}")

    def execute(self, op, runner, expected=None):
        """Run and check one op; returns (seconds, stdout or None).

        With an ``expected`` stdout, the op also fails unless its stdout is
        byte-identical to it.
        """
        start = perf_counter()
        try:
            code, out = runner(op.argv)
        except Exception as exc:     # an op that raises is a failed op
            elapsed = perf_counter() - start
            self.record(op.argv, f"raised {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = perf_counter() - start
        reason = op.check(code, out)
        if reason is None and expected is not None and out != expected:
            reason = "stdout differs from an earlier run of the same argv"
        self.record(op.argv, reason)
        return elapsed, out


def closed_loop(workload, seed, seconds, runner, tally, expected, ref):
    """One client, next op only after the previous one.

    Returns the per-op seconds, the seconds of the ``calibrate`` reference
    ``ref`` timed before each op and after the last, and the wall time of
    the loop.  The first op's stdout must equal ``expected``, the warm-up's.
    """
    latencies, refs = [], []
    start = perf_counter()
    index = 0
    while perf_counter() - start < seconds:
        op = op_at(workload, seed, index)
        refs.append(ref.time())
        elapsed, _ = tally.execute(op, runner, expected if index == 0 else None)
        latencies.append(elapsed)
        index += 1
    refs.append(ref.time())
    return {"latencies_s": latencies, "refs_s": refs,
            "wall_s": perf_counter() - start, "reference": ref.name,
            "nominal_s": ref.nominal_s}


def run_cold(argv):
    """``python -m qktoledo.cli argv`` in a fresh process: (exit code, stdout)."""
    code, out, _ = run_child(argv)
    return code, out


def _traced_cold_runner(tracer):
    """Each op in a fresh process under ``traced_cli.py``; merges its trace."""
    script = str(HERE / "traced_cli.py")

    def runner(argv):
        code, out, err = run_child(argv, (script, str(tracer.op_id)))
        for line in err.splitlines():
            if line.startswith(TRACE_MARKER):
                tracer.merge(json.loads(line[len(TRACE_MARKER):]))
        return code, out
    return runner


def import_breakdown(seed, tally):
    """One ``python -X importtime`` child per verb: import and process times."""
    imports, process, modules = [], [], {}
    for index in range(5):               # cli-cold cycles the verbs by index
        op = op_at("cli-cold", seed, index)
        start = perf_counter()
        try:
            code, out, err = run_child(op.argv, ("-X", "importtime", "-m",
                                                 "qktoledo.cli"))
        except (OSError, subprocess.SubprocessError) as exc:
            tally.record(op.argv, f"raised {type(exc).__name__}: {exc}")
            continue
        process.append(perf_counter() - start)
        tally.record(op.argv, op.check(code, out))
        table = parse_importtime(err)
        if "qktoledo" in table:
            imports.append(table["qktoledo"][1] / 1e6)
        for name, (own, _) in table.items():
            modules[name] = max(modules.get(name, 0), own)
    slowest = sorted(modules.items(), key=lambda kv: -kv[1])[:8]
    return {"import_s": imports, "process_s": process,
            "slowest_modules_us": slowest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    in_process = args.workload in IN_PROCESS
    if in_process:
        import qktoledo.cli  # noqa: F401  (import is part of set-up)
        runner, ref = run_in_process, LOOP
    else:
        runner, ref = run_cold, SPAWN
    tally = Tally()
    _, expected = tally.execute(op_at(args.workload, args.seed, 0), runner)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        half = args.seconds / 2
        result["untraced"] = closed_loop(args.workload, args.seed, half,
                                         runner, tally, expected, ref)
        tracer = Tracer()
        if in_process:
            tracer.install()
            traced = tracer.wrap(OP_SPAN, runner)
        else:
            traced = _traced_cold_runner(tracer)

        op_ids = itertools.count()

        def op_runner(argv):
            tracer.op_id = next(op_ids)
            return traced(argv)

        try:
            result["traced"] = closed_loop(args.workload, args.seed, half,
                                           op_runner, tally, expected, ref)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        result["unwrapped"] = tracer.missing
        result["imports"] = import_breakdown(args.seed, tally)
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"workload": args.workload,
                                        "seed": args.seed,
                                        "fields": ["name", "start", "end",
                                                   "parent", "op"],
                                        "spans": tracer.spans}))
    else:
        result["loop"] = closed_loop(args.workload, args.seed, args.seconds,
                                     runner, tally, expected, ref)
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        result["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.reasons)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
