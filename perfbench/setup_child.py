"""Cold set-up of one workload, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/setup_child.py APP [APP ...]`` with
``REPRO_TRACE_CACHE`` pointing at an empty directory.  Imports the
simulator, builds every app's compiled trace through the normal
read-through path (memo miss, disk miss, machine run, cache write), then
runs one ``none`` and one ``nextline`` cell on the first app, which build
the first batch plan, the first segment plan and the first replay
kernels.  A fresh process is cold by construction.  The clock starts
before the simulator's imports, so work moved into import time still
counts, and leaves out process creation and interpreter start, which no
change to the simulator moves.  Each step (the imports, each trace, the
first cells) is timed on its own and converted to reference seconds
(:mod:`hostspeed`); ``setup_s`` is their sum.  The last stdout line is a
JSON object: ``setup_s``, the median host-speed factor and per-layer
numbers (host seconds).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import hostspeed

CLOCK = hostspeed.HostClock()
STARTED = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import make_prefetcher, simulate  # noqa: E402
from repro.engine.kernel import kernel_counters  # noqa: E402
from repro.workloads import get_workload  # noqa: E402
from repro.workloads.tracecache import trace_counters  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED


def main(apps: list[str]) -> dict:
    setup_s = CLOCK.scale(IMPORT_S)
    build_s = 0.0
    instructions = 0
    traces = []
    for app in apps:
        started = time.perf_counter()
        trace = get_workload(app).trace()
        elapsed = time.perf_counter() - started
        build_s += elapsed
        setup_s += CLOCK.scale(elapsed)
        instructions += len(trace)
        traces.append(trace)
    started = time.perf_counter()
    for name in ("none", "nextline"):
        simulate(traces[0], make_prefetcher(name))
    plan_s = time.perf_counter() - started
    setup_s += CLOCK.scale(plan_s)
    counters = trace_counters()
    kernels = kernel_counters()
    return {
        "setup_s": setup_s,
        "factor": CLOCK.median_factor(),
        "workloads.trace_build_s": build_s,
        "workloads.builds": counters["builds"],
        "isa.trace_instructions": instructions,
        "isa.derived_builds": counters["derived_builds"],
        "engine.first_plan_s": plan_s,
        "engine.plan_builds": kernels.get("plan_builds", 0),
        "engine.kernels_compiled": sum(
            v for k, v in kernels.items() if k.startswith("compiled.")),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
