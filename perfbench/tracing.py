"""Per-layer metrics for the traced run (``--trace 1``).

The benchmark times its own calls into each module and, for calls the
program makes internally (trace-cache loads, result-cache gets and
puts, shared-memory publishes, ``run_jobs``), wraps those public
functions for the duration of the traced run only.  The untraced run
installs nothing, so the difference between the two runs' end-to-end
numbers is the tracing overhead (``trace.sweep_s`` and
``trace.instr_per_s`` repeat the end-to-end pair under tracing for that
comparison).  Layers a workload does not exercise report 0.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from unittest import mock

TIERS = ("batch", "segmented", "scalar", "generic")
"""Replay tiers, named by the first part of ``SimulationResult.kernel``
(``fast+...`` variants are the scalar specialized kernels)."""

PREFETCHERS = ("ampm", "bop", "c1", "fdp", "ghb", "isb", "markov",
               "nextline", "none", "p1", "sms", "spp", "stride", "t2",
               "tpc", "tpc-adaptive", "vldp")
"""The registered prefetchers of the seed code, one host-time metric
each."""

MEMORY_STATS = ("l1_mpki", "l2_mpki", "dram_lines", "row_hit_frac",
                "mshr_drops", "dram_queue_stalls")

PER_LAYER = (
    ["workloads.trace_build_s", "workloads.builds",
     "workloads.trace_load_s", "workloads.disk_hits",
     "workloads.memory_hits", "isa.trace_instructions",
     "isa.derived_builds", "isa.derived_hits"]
    + [f"engine.{tier}.{stat}" for tier in TIERS
       for stat in ("s", "ns_per_instr", "cells")]
    + ["engine.first_plan_s", "engine.plan_builds", "engine.plan_hits",
       "engine.kernels_compiled"]
    + [f"prefetch.{name}.s" for name in PREFETCHERS]
    + ["prefetch.tpc.issued", "prefetch.tpc.useful",
       "prefetch.tpc.eff_accuracy", "prefetch.tpc.coverage",
       "prefetch.all.issued", "prefetch.all.useful"]
    + [f"memory.{name}.{stat}" for name in ("none", "tpc")
       for stat in MEMORY_STATS]
    + ["runner.memory_hits", "runner.disk_hits", "runner.simulated",
       "runner.hit_frac", "runner.failed_cells",
       "resultcache.get_s", "resultcache.gets", "resultcache.put_s",
       "resultcache.puts", "resultcache.bytes_written",
       "parallel.trace_warm_s", "parallel.publish_s",
       "parallel.simulate_s", "parallel.merge_s", "parallel.busy_frac",
       "parallel.steals", "parallel.shm_publishes",
       "parallel.leaked_segments", "parallel.tracker_errors",
       "analysis.figure_s", "analysis.requests",
       "multicore.ns_per_instr", "multicore.ws_none", "multicore.ws_tpc",
       "multicore.ws_tpc_c1first", "multicore.dram_lines",
       "trace.sweep_s", "trace.instr_per_s", "host.speed_factor"]
)

def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s") or last == "s":
        return "s"
    if last == "ns_per_instr":
        return "ns"
    if last.endswith("_frac") or last in ("eff_accuracy", "coverage"):
        return "ratio"
    if last.endswith("_mpki"):
        return "1/kinstr"
    if last.startswith("ws_") or last.endswith("_factor"):
        return "x"
    if last.endswith("_bytes") or last == "bytes_written":
        return "bytes"
    return "count"


_HIGHER_IS_BETTER = ("hit_frac", "busy_frac", "useful", "eff_accuracy",
                     "coverage", "row_hit_frac", "instr_per_s", "cells",
                     "requests")


def better_of(name: str) -> str:
    """Which way a per-layer metric improves: hits, useful prefetches,
    coverage, speedups and throughput up; time, misses, traffic, builds,
    drops and errors down."""
    last = name.rsplit(".", 1)[-1]
    if (last.startswith("ws_") or last.endswith("hits")
            or last in _HIGHER_IS_BETTER):
        return "higher"
    return "lower"


def tier_of(kernel: str) -> str:
    head = kernel.split("+", 1)[0]
    return "scalar" if head == "fast" else head


class Tracer:
    """Accumulates per-layer numbers; a disabled tracer records nothing
    and patches nothing.  Wrappers stay installed until :attr:`patches`
    (an ``ExitStack`` the run enters around the window) closes."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.values: dict[str, float] = defaultdict(float)
        self._engine_instr: dict[str, int] = defaultdict(int)
        self.patches = contextlib.ExitStack()

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.values[name] += value

    def cell(self, kernel: str, prefetcher: str, seconds: float,
             instructions: int) -> None:
        """One simulated cell: host seconds by replay tier and by
        prefetcher."""
        if not self.enabled:
            return
        tier = tier_of(kernel)
        self.values[f"engine.{tier}.s"] += seconds
        self.values[f"engine.{tier}.cells"] += 1
        self._engine_instr[tier] += instructions
        self.values[f"prefetch.{prefetcher}.s"] += seconds

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :attr:`patches` closes."""
        self.patches.enter_context(
            mock.patch.object(owner, attr, replacement))

    def wrap(self, owner, attr: str, seconds: str,
             count: str | None = None) -> None:
        """Time every call of ``owner.attr`` into ``seconds`` (and bump
        ``count``) until :attr:`patches` closes."""
        if not self.enabled:
            return
        original = getattr(owner, attr)
        values = self.values

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                values[seconds] += time.perf_counter() - started
                if count is not None:
                    values[count] += 1

        self.patch(owner, attr, timed)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Every :data:`PER_LAYER` metric with its unit."""
        values = dict(self.values)
        for tier in TIERS:
            instructions = self._engine_instr.get(tier, 0)
            if instructions:
                values[f"engine.{tier}.ns_per_instr"] = (
                    values[f"engine.{tier}.s"] * 1e9 / instructions)
        return {name: {"value": values.get(name, 0), "unit": unit_of(name)}
                for name in PER_LAYER}
