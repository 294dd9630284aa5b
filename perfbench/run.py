"""Repository benchmark: one closed-loop client per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matrix-sweep --seed 1 \\
        --seconds 10 --trace 0

Workloads are ``matrix-sweep``, ``report-session`` and ``mix-4core``
(see README.md).  The run sets up the workload cold in fresh
interpreters, twice before the window and once after it (``setup_s`` is
the median of the three), prepares untimed state, sends whole passes of
requests until ``--seconds`` of request time have passed, checks every
answer, tears down the pool, shared memory and resource tracker, and
prints one JSON object as the last stdout line: the end-to-end metrics
with ``--trace 0`` (``setup_s`` and matrix-sweep's and mix-4core's
times in reference seconds, see ``hostspeed.py``), the per-layer metrics
with ``--trace 1``.  Its caches and logs live in ``.perfbench-tmp/``
inside the repository, removed at exit; it exits non-zero without a
result when the simulator sources are missing or a run fails.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import streams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BEFORE = 2
SETUP_AFTER = 1
"""Cold set-ups before and after the window.  Spreading them over the
run makes their median follow the host's speed over the whole run, not
over the ten seconds before the window."""
SETUP_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def isolate(tmp: Path) -> None:
    """Set the environment for this run and its children: no inherited
    ``REPRO_*`` settings, private trace cache, fault log off, quiet
    logger, and git confined to the checkout (run manifests ask git for
    the HEAD commit)."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update({
        "REPRO_TRACE_CACHE": str(tmp / "traces"),
        "REPRO_FAULT_LOG": "",
        "REPRO_LOG": "quiet",
        "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
    })


def cold_setup(apps: list[str], cache: Path) -> dict:
    """One cold set-up in a fresh interpreter with an empty trace cache
    at ``cache``; its ``setup_s`` and per-layer numbers."""
    env = dict(os.environ, REPRO_TRACE_CACHE=str(cache))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), *apps],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_setup(setups: list[dict]) -> dict:
    """The per-layer numbers of the set-up at the median (the upper one
    of an even count)."""
    return sorted(setups, key=lambda s: s["setup_s"])[len(setups) // 2]


def own_peak_kb() -> int:
    """Peak RSS of this process (kB; set-up interpreters and pool
    workers are separate processes and not in it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def stop_resource_tracker() -> None:
    """Reap the multiprocessing resource tracker (it would otherwise
    outlive this process and report after it exits)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


TRACKER_ERROR = re.compile(r"^KeyError: '/?repro-", re.MULTILINE)


def measure(args, tmp: Path) -> dict:
    """Set up, prepare, time the window, check, tear down.  Returns the
    request count, the failures, the end-to-end metrics and the tracer
    (whose metrics are final once the tracker errors are counted)."""
    sys.path.insert(0, str(ROOT / "src"))
    import drivers
    import tracing

    apps = streams.panel(args.seed, args.workload)
    phases = {}
    started = time.perf_counter()
    setups = [cold_setup(apps, tmp / f"setup-{i}")
              for i in range(SETUP_BEFORE)]
    # The last set-up's trace cache is this run's warm cache.
    os.environ["REPRO_TRACE_CACHE"] = str(tmp / f"setup-{SETUP_BEFORE - 1}")
    phases["setup"] = time.perf_counter() - started
    tracer = tracing.Tracer(bool(args.trace))
    driver = drivers.DRIVERS[args.workload](args.seed, tracer, tmp)
    before = drivers.counters_snapshot()
    with tracer.patches:
        started = time.perf_counter()
        driver.prepare()
        phases["prepare"] = time.perf_counter() - started
        started = time.perf_counter()
        window = drivers.run_window(driver, args.seconds)
        phases["window"] = time.perf_counter() - started
    after = drivers.counters_snapshot()
    started = time.perf_counter()
    simulated = driver.finish()
    phases["finish"] = time.perf_counter() - started

    from repro.parallel import shm, shutdown_pool

    shutdown_pool()
    shm.release_all()
    stop_resource_tracker()
    # Every segment this process publishes is named repro-<pid>-...;
    # other processes' segments are never looked at.
    leaked = sorted(glob.glob(f"/dev/shm/repro-{os.getpid()}-*"))
    for name in leaked:
        driver.fail(f"shared-memory segment {name} left behind")
    peak_kb = own_peak_kb() + driver.workers_peak_kb

    started = time.perf_counter()
    setups += [cold_setup(apps, tmp / f"setup-{SETUP_BEFORE + i}")
               for i in range(SETUP_AFTER)]
    phases["setup after"] = time.perf_counter() - started
    setup_s = statistics.median(s["setup_s"] for s in setups)
    factors = [s["factor"] for s in setups]
    if window.clock:
        factors += window.clock.factors
    setup_layers = median_setup(setups)
    del setup_layers["setup_s"], setup_layers["factor"]

    latencies = window.latencies
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (statistics.median(window.passes), "s"),
        "instr_per_s": (window.instructions / sum(window.passes), "1/s"),
        "request_p50_s": (drivers.percentile(latencies, 50), "s"),
        "request_p90_s": (drivers.percentile(latencies, 90), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "tpc_speedup": (simulated["tpc_speedup"], "x"),
        "tpc_traffic_ratio": (simulated["tpc_traffic_ratio"], "x"),
    }
    end_to_end = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in end_to_end.items()}
    print(f"# {args.workload} seed {args.seed}: {len(latencies)} requests, "
          f"{len(window.passes)} whole passes, {window.host_s:.2f} s "
          f"active, host-speed factor {statistics.median(factors):.3f}; "
          f"phases " + ", ".join(
              f"{name} {seconds:.1f} s" for name, seconds in phases.items()),
          file=sys.stderr)
    if args.trace:
        for name, value in setup_layers.items():
            tracer.add(name, value)
        tracer.add("workloads.disk_hits",
                   after["disk_hits"] - before["disk_hits"])
        tracer.add("workloads.memory_hits",
                   after["memory_hits"] - before["memory_hits"])
        tracer.add("isa.derived_hits",
                   after["derived_hits"] - before["derived_hits"])
        tracer.add("engine.plan_hits", after.get("plan_cache_hits", 0)
                   - before.get("plan_cache_hits", 0))
        tracer.add("parallel.shm_publishes",
                   after["shm_publishes"] - before["shm_publishes"])
        tracer.add("parallel.leaked_segments", len(leaked))
        tracer.add("host.speed_factor", statistics.median(factors))
        tracer.add("trace.sweep_s", end_to_end["sweep_s"]["value"])
        tracer.add("trace.instr_per_s", end_to_end["instr_per_s"]["value"])
    return {"attempted": len(latencies), "failures": driver.failures,
            "end_to_end": end_to_end, "tracer": tracer}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = scratch / f"run-{os.getpid()}"
    tmp.mkdir()
    isolate(tmp)
    # Capture fd 2 so the resource tracker's error reports (it inherits
    # this descriptor) can be counted; replayed to the real stderr below.
    log_path = tmp / "stderr.log"
    real_stderr = os.dup(2)
    log = open(log_path, "w+")
    sys.stderr.flush()
    os.dup2(log.fileno(), 2)
    try:
        outcome = measure(args, tmp)
    finally:
        sys.stderr.flush()
        os.dup2(real_stderr, 2)
        os.close(real_stderr)
        log.seek(0)
        captured = log.read()
        log.close()
        sys.stderr.write(captured)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is using it
            pass
    if args.trace:
        tracer = outcome["tracer"]
        tracer.add("parallel.tracker_errors",
                   len(TRACKER_ERROR.findall(captured)))
        metrics = tracer.metrics()
    else:
        metrics = outcome["end_to_end"]
    for failure in outcome["failures"]:
        print(f"# FAILED {failure}", file=sys.stderr)
    failed = len(outcome["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
