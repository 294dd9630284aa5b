"""Steadiness helper: run the benchmark over several seeds and report
each metric's median, quartiles and spread (IQR / median).

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads matrix-sweep report-session \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds N] [--trace 0 1]

Quartiles are ``statistics.quantiles(values, n=4)``, the form the bounds
in ``BENCHMARK.json`` are judged by.  A spread above a third of the
metric's bound is marked ``*``, one above the bound ``!``.  With
``--trace 0 1`` every seed runs untraced and traced, and the tracing
overhead is printed as the traced median of ``trace.sweep_s`` over the
untraced median of ``sweep_s``.  Runs are sequential, so the machine is
never shared between two of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["log"] = [line for line in proc.stderr.splitlines()
                     if line.startswith("# ")]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=[0, 1],
                        default=[0])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict = {}
    for workload in args.workloads:
        for seed in args.seeds:
            for trace in args.trace:
                result = run_once(workload, seed, args.seconds, trace)
                key = workload + (" --trace 1" if trace else "")
                runs.setdefault(key, []).append({"seed": seed, **result})
                print(f"# {key} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}; "
                      + "; ".join(result["log"]), file=sys.stderr,
                      flush=True)

    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs, seeds "
              f"{' '.join(str(r['seed']) for r in results)})")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            median, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "!" if rel > bound else "*" if rel > bound / 3 else ""
            print(f"  {name:<28} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{rel:>8.3f} {mark}")
        failed = sum(r["failed"] for r in results)
        print(f"  failed operations: {failed}")
        untraced = runs.get(workload.removesuffix(" --trace 1"))
        if workload.endswith(" --trace 1") and untraced:
            traced = statistics.median(
                r["metrics"]["trace.sweep_s"]["value"] for r in results)
            plain = statistics.median(
                r["metrics"]["sweep_s"]["value"] for r in untraced)
            print(f"  tracing overhead: {traced / plain - 1:+.3f} "
                  f"(sweep_s {plain:.4g} -> {traced:.4g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
