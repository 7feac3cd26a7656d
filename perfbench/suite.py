"""Run the benchmark on every workload for several seeds, and summarize.

    python3 perfbench/suite.py [--seeds 1-10] [--trace 0|1]
                               [--out perfbench/results/FILE.json]

Each run is one ``run.py`` process of ``run_seconds`` (from ``BENCHMARK.json``)
on one of the four workloads, run one at a time, seeds in the outer loop
so slow phases of a shared machine spread over all workloads.  For each
workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, next to the bound in ``BENCHMARK.json``; ``fail_ratio``
is printed from each run's ``failed`` and ``attempted``.  ``--out`` keeps
every run's result with the run metadata.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, quartile_spread, run_meta
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    """ "1-10" or "7" -> list of ints."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": quartile_spread(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}

    runs = []
    for seed in seeds:
        for workload in WORKLOADS:
            result = run_once(workload, seed, seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "result": result})
            shown = ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items()
                              if k in bounds and bounds[k] is not None)
            print(f"{workload:9s} seed {seed:3d}: correct={result['correct']} "
                  f"fail_ratio={result['failed'] / result['attempted']:.3g} "
                  f"({result['failed']}/{result['attempted']}) {shown}",
                  flush=True)

    summary = {}
    for workload in WORKLOADS:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        summary[workload] = {}
        print(f"\n{workload}: {len(mine)} runs")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            unit = mine[0]["metrics"][name]["unit"]
            if len(values) < 2 or not statistics.median(values):
                continue
            row = summarize(values)
            row["unit"], row["bound"] = unit, bounds.get(name)
            summary[workload][name] = row
            bound = row["bound"]
            flag = "" if bound is None else (
                "  ok" if row["spread"] < bound / 3 else "  WIDE")
            print(f"  {name:42s} median {row['median']:12.6g} {unit:9s} "
                  f"spread {row['spread']:7.2%}"
                  + ("" if bound is None else f" bound {bound:.0%}") + flag)
        fails = sum(r["failed"] for r in mine)
        tries = sum(r["attempted"] for r in mine)
        print(f"  {'fail_ratio':42s} {fails / tries:.6g} ({fails} of {tries} ops)")

    if args.out:
        meta = {k: v for k, v in run_meta("all", None).items()
                if k not in ("workload", "why", "seed")}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"meta": meta, "seconds": seconds, "trace": args.trace,
             "workloads": WORKLOADS, "seeds": seeds, "summary": summary,
             "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
