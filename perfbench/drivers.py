"""The three benchmark workloads as closed-loop clients.

Each driver prepares untimed state (warm traces, references, baselines),
then :func:`run_window` sends its request stream over and over, one
request at a time, in whole passes until ``--seconds`` of request time
have passed.  Checks run between requests with the clock stopped; a
request whose check fails counts as failed.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import checks
import hostspeed
import streams
from repro import make_prefetcher, simulate
from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine.kernel import kernel_counters
from repro.engine.multicore import simulate_multicore
from repro.experiments.runner import ExperimentRunner, spec_key
from repro.memory.dram import DropPolicy
from repro.prefetcher_registry import PAPER_MONOLITHIC, available_prefetchers
from repro.workloads import get_workload
from repro.workloads.tracecache import trace_counters

FIGURE_PREFETCHERS = ["none"] + PAPER_MONOLITHIC + ["tpc"]
"""The cells a report figure reads per app."""
GENERIC_SAMPLE = 1
"""Cells per run re-simulated on the generic step loop."""


@dataclass
class Window:
    latencies: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    instructions: int = 0
    host_s: float = 0.0
    clock: hostspeed.HostClock | None = None


def run_window(driver, seconds: float) -> Window:
    """Closed loop over ``driver.stream()``: whole passes until
    ``seconds`` of request time have passed.

    Whole passes keep every run's mix of request kinds the same, so the
    percentiles never slide across the boundary between two kinds.
    Request latency is the request's own wall time; a pass's time adds
    its requests and its teardown (``end_pass``), which is where a
    report session's pool and shared memory go away.  A request for
    which ``driver.calibrates`` holds is kept in reference seconds
    (:mod:`hostspeed`); other requests and the teardown stay in host
    seconds.  The window counts pass times so kept, so where every
    request is calibrated the host's speed does not decide how many
    passes a run makes.  ``driver.after`` gets host seconds, the unit of
    every per-layer time.
    """
    window = Window()
    if driver.calibrated:
        window.clock = hostspeed.HostClock()
    clock = window.clock
    stream = driver.stream()
    while sum(window.passes) < seconds:
        driver.begin_pass(len(window.passes))
        pass_s = 0.0
        for request in stream:
            started = time.perf_counter()
            try:
                payload = driver.execute(request)
            except Exception as exc:  # a failed request, not a crash
                payload = exc
            elapsed = time.perf_counter() - started
            window.host_s += elapsed
            # Scaling runs the burst after every request, so the next
            # calibrated request's burst before it is never stale.
            scaled = clock.scale(elapsed) if clock else elapsed
            latency = scaled if driver.calibrates(request) else elapsed
            window.latencies.append(latency)
            pass_s += latency
            if isinstance(payload, Exception):
                driver.fail(f"{request}: {payload!r}")
            else:
                window.instructions += driver.after(request, payload,
                                                    elapsed)
        started = time.perf_counter()
        driver.end_pass()
        elapsed = time.perf_counter() - started
        window.host_s += elapsed
        pass_s += elapsed
        if clock:
            clock.scale(elapsed)
        driver.after_pass()
        window.passes.append(pass_s)
    return window


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Driver:
    name = ""
    calibrated = False
    """Whether request times are converted to reference seconds (see
    :mod:`hostspeed` and README.md for which workloads and why)."""
    workers_peak_kb = 0
    """Largest summed peak RSS of a pool's workers (report-session)."""

    def __init__(self, seed: int, tracer, tmp: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        self.apps = streams.panel(seed, self.name)
        self.traces: dict = {}
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def calibrates(self, request) -> bool:
        """Whether ``request``'s latency is kept in reference seconds."""
        return self.calibrated

    def load_traces(self) -> None:
        """Warm traces from the on-disk cache the last set-up filled."""
        for app in self.apps:
            started = time.perf_counter()
            self.traces[app] = get_workload(app).trace()
            self.tracer.add("workloads.trace_load_s",
                            time.perf_counter() - started)

    def begin_pass(self, index: int) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def after_pass(self) -> None:
        pass

    def finish(self) -> dict:
        """Post-window checks; returns the simulated end-to-end pair."""
        raise NotImplementedError

    # Shared helpers ----------------------------------------------------
    def check(self, key, result, reference: dict) -> bool:
        """Whether ``result`` equals ``reference[key]``."""
        return checks.same(result, reference.get(key))

    def generic_sample(self, cells, reference: dict) -> None:
        """A seeded sample of single-core cells must be bit-identical
        on the generic step loop (``REPRO_KERNEL=generic``)."""
        rng = random.Random(f"generic:{self.name}:{self.seed}")
        for app, prefetcher in rng.sample(sorted(cells), GENERIC_SAMPLE):
            with mock.patch.dict(os.environ, {"REPRO_KERNEL": "generic"}):
                result = simulate(get_workload(app).trace(),
                                  make_prefetcher(prefetcher))
            if (result.kernel != "generic"
                    or not self.check((app, prefetcher), result, reference)):
                self.fail(f"{app}/{prefetcher}: generic step loop "
                          f"({result.kernel}) disagrees")

    def single_core_metrics(self, pairs: dict, everything) -> dict:
        """tpc speedup/traffic over ``none`` (geomeans over apps, as
        Figs. 8 and 9 summarize), plus the simulated per-layer counts.
        ``pairs`` maps app -> (none result, tpc result)."""
        nones = [none for none, _ in pairs.values()]
        tpcs = [tpc for _, tpc in pairs.values()]
        memory_metrics(self.tracer, "none", nones, [r.dram for r in nones])
        memory_metrics(self.tracer, "tpc", tpcs, [r.dram for r in tpcs])
        prefetch_metrics(self.tracer, nones, tpcs, everything)
        return {
            "tpc_speedup": geomean(none.cycles / tpc.cycles
                                   for none, tpc in pairs.values()),
            "tpc_traffic_ratio": geomean(
                tpc.dram_traffic / none.dram_traffic
                for none, tpc in pairs.values()),
        }


def memory_metrics(tracer, name: str, results, drams) -> None:
    """Simulated memory-hierarchy counts summed over ``results``."""
    instructions = sum(r.core.instructions for r in results)
    tracer.add(f"memory.{name}.l1_mpki",
               1000 * sum(r.l1d.demand_misses for r in results)
               / instructions)
    tracer.add(f"memory.{name}.l2_mpki",
               1000 * sum(r.l2.demand_misses for r in results)
               / instructions)
    tracer.add(f"memory.{name}.dram_lines",
               sum(d.total_traffic for d in drams))
    opened = sum(d.row_hits + d.row_empty + d.row_conflicts for d in drams)
    tracer.add(f"memory.{name}.row_hit_frac",
               sum(d.row_hits for d in drams) / opened if opened else 0)
    tracer.add(f"memory.{name}.mshr_drops",
               sum(r.prefetch.dropped_mshr for r in results))
    tracer.add(f"memory.{name}.dram_queue_stalls",
               sum(d.demand_queue_stalls for d in drams))


def prefetch_metrics(tracer, nones, tpcs, everything) -> None:
    """Simulated prefetch counts: tpc against ``none`` on the same
    traces, and issued/useful summed over every distinct cell."""
    issued = sum(r.prefetch.issued for r in tpcs)
    base_misses = sum(r.l1d.demand_misses for r in nones)
    tpc_misses = sum(r.l1d.demand_misses for r in tpcs)
    tracer.add("prefetch.tpc.issued", issued)
    tracer.add("prefetch.tpc.useful",
               sum(r.l1d.useful_prefetches + r.l2.useful_prefetches
                   for r in tpcs))
    tracer.add("prefetch.tpc.eff_accuracy",
               (base_misses - tpc_misses) / issued if issued else 0)
    tracer.add("prefetch.tpc.coverage",
               1 - tpc_misses / base_misses if base_misses else 0)
    everything = list(everything)
    tracer.add("prefetch.all.issued",
               sum(r.prefetch.issued for r in everything))
    tracer.add("prefetch.all.useful",
               sum(r.l1d.useful_prefetches + r.l2.useful_prefetches
                   for r in everything))


# ----------------------------------------------------------------------
class MatrixSweep(Driver):
    """Seeded panel x every registered prefetcher through serial
    ``ExperimentRunner``s without a result cache; one request is one
    cell on a runner of its own, so only the first pass's results (the
    reference) stay in memory however many passes fit in the window.
    Traces and replay plans are warm before timing starts, and frozen
    out of the cyclic garbage collector."""

    name = "matrix-sweep"
    calibrated = True

    def prepare(self) -> None:
        self.load_traces()
        for trace in self.traces.values():
            for prefetcher in ("none", "nextline"):  # batch + segment plans
                simulate(trace, make_prefetcher(prefetcher))
        self.cells = streams.matrix_stream(self.seed,
                                           available_prefetchers())
        self.reference: dict = {}
        # The warm traces and plans are ~530k objects that every full
        # collection would walk (0.11 s on a fast host), at whichever
        # cells the collector picks; frozen, they are left out of it.
        gc.collect()
        gc.freeze()

    def stream(self):
        return self.cells

    def execute(self, cell):
        runner = ExperimentRunner()
        return runner, runner.run(*cell)

    def after(self, cell, served, seconds: float) -> int:
        runner, result = served
        for name in ("memory_hits", "simulated"):
            self.tracer.add(f"runner.{name}", runner.counters[name])
        instructions = result.core.instructions
        self.tracer.cell(result.kernel, cell[1], seconds, instructions)
        # The first pass's cells are fresh serial simulations; later
        # passes must reproduce them.
        self.reference.setdefault(cell, result)
        if not self.check(cell, result, self.reference):
            self.fail(f"{cell}: differs from the first pass")
        return instructions

    def finish(self) -> dict:
        self.generic_sample(self.reference, self.reference)
        pairs = {app: (self.reference[(app, "none")],
                       self.reference[(app, "tpc")]) for app in self.apps}
        return self.single_core_metrics(pairs, self.reference.values())


# ----------------------------------------------------------------------
class RecordingRunner(ExperimentRunner):
    """An ``ExperimentRunner`` that keeps every result it serves and the
    host time spent inside it (the rest of a request is analysis)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.served: dict = {}
        self.seconds = 0.0

    def run(self, workload, prefetcher="none", tag=""):
        started = time.perf_counter()
        result = super().run(workload, prefetcher, tag)
        self.seconds += time.perf_counter() - started
        self.served[(workload, spec_key(prefetcher), tag)] = result
        return result

    def prefill(self, jobs, n_jobs=None):
        started = time.perf_counter()
        try:
            return super().prefill(jobs, n_jobs)
        finally:
            self.seconds += time.perf_counter() - started


class ReportSession(Driver):
    """Seeded figure requests, each a short-lived
    ``ExperimentRunner(cache_dir, jobs=nproc)`` running one experiments
    module.  A pass is one report session: an empty result cache, traces
    loaded from the on-disk trace cache, and the pool and shared memory
    torn down at the end.

    Cache-served requests run in this process and are calibrated; the
    simulating ones spend their time in the pool's workers, whose speed
    the bursts between requests do not sample (README.md has the
    numbers), and stay in host seconds."""

    name = "report-session"
    calibrated = True

    def calibrates(self, request) -> bool:
        return not request[2]

    def prepare(self) -> None:
        self.load_traces()
        # Fresh serial simulations of every cell the stream can serve.
        self.reference = {
            (app, prefetcher): simulate(self.traces[app],
                                        make_prefetcher(prefetcher))
            for app in self.apps for prefetcher in FIGURE_PREFETCHERS}
        # Holding these traces would keep their replay plans alive in the
        # process-wide plan registry and hand them to every later session.
        self.traces.clear()
        self.jobs = os.cpu_count() or 1
        self.requests = streams.report_stream(self.seed)
        self.modules = {name: importlib.import_module(
            f"repro.experiments.{name}") for name in streams.REPORT_MODULES}
        self.obs = None
        if self.tracer.enabled:
            self._trace_internals()

    def _trace_internals(self) -> None:
        import repro.parallel as parallel
        from repro.parallel import shm
        from repro.resultcache import ResultCache
        from repro.workloads.tracecache import TraceCache

        tracer = self.tracer
        tracer.wrap(TraceCache, "get", "workloads.trace_load_s")
        tracer.wrap(ResultCache, "get", "resultcache.get_s",
                    "resultcache.gets")
        tracer.wrap(ResultCache, "put", "resultcache.put_s",
                    "resultcache.puts")
        tracer.wrap(shm, "publish", "parallel.publish_s")
        run_jobs = parallel.run_jobs

        def timed_run_jobs(jobs, config, n_jobs, timings=None, **kwargs):
            timings = {} if timings is None else timings
            started = time.perf_counter()
            try:
                return run_jobs(jobs, config, n_jobs, timings, **kwargs)
            finally:
                tracer.add("parallel.jobs_wall_s",
                           time.perf_counter() - started)
                tracer.add("parallel.trace_warm_s",
                           timings.get("trace_warm_seconds", 0))
                tracer.add("parallel.simulate_s",
                           timings.get("simulate_seconds", 0))
                tracer.add("parallel.merge_s",
                           timings.get("merge_seconds", 0))

        tracer.patch(parallel, "run_jobs", timed_run_jobs)

    def stream(self):
        return self.requests

    def begin_pass(self, index: int) -> None:
        self.cache_dir = self.tmp / "results" / f"pass-{index}"
        for app in self.apps:
            # A report session is a fresh process: its traces come from
            # the warm on-disk trace cache, not this process's memo.
            get_workload(app)._trace = None
        gc.collect()
        if self.tracer.enabled:
            from repro.obs import FabricObs

            self.obs = FabricObs(f"report-session-{index}")

    def execute(self, request):
        module, apps, _ = request
        runner = RecordingRunner(cache_dir=str(self.cache_dir),
                                 jobs=self.jobs, obs=self.obs)
        self.modules[module].run(runner, apps=list(apps))
        return runner

    def after(self, request, runner, seconds: float) -> int:
        wrong = [key for key, result in runner.served.items()
                 if key[2] or not self.check(key[:2], result,
                                             self.reference)]
        if wrong:
            self.fail(f"{request}: {wrong} differ from fresh serial runs")
        tracer = self.tracer
        for name, value in runner.counters.items():
            if name in ("memory_hits", "disk_hits", "simulated",
                        "failed_cells"):
                tracer.add(f"runner.{name}", value)
        if runner.counters["failed_cells"]:
            self.fail(f"{request}: {runner.counters['failed_cells']} "
                      f"failed cells")
        tracer.add("analysis.figure_s", seconds - runner.seconds)
        tracer.add("analysis.requests", 1)
        return sum(r.core.instructions for r in runner.served.values())

    def end_pass(self) -> None:
        from repro.parallel import shm, shutdown_pool

        self.workers_peak_kb = max(self.workers_peak_kb, pool_peak_kb())
        shutdown_pool()
        shm.release_all()

    def after_pass(self) -> None:
        if self.cache_dir.exists():
            self.tracer.add("resultcache.bytes_written", sum(
                p.stat().st_size for p in self.cache_dir.rglob("*")
                if p.is_file()))
            shutil.rmtree(self.cache_dir)
        if self.obs is None:
            return
        self.obs.finish()
        tracer = self.tracer
        for span in self.obs.spans:
            if span.name == "cell" and "instructions" in span.attrs:
                tracer.cell(span.attrs["kernel"], span.spec, span.dur,
                            span.attrs["instructions"])
                if span.worker > 0:  # timed inside a pool worker
                    tracer.add("parallel.busy_s", span.dur)
            elif span.name == "steal":
                tracer.add("parallel.steals", 1)
        self.obs = None

    def finish(self) -> dict:
        values = self.tracer.values
        wall = values.get("parallel.jobs_wall_s", 0)
        if wall:
            values["parallel.busy_frac"] = (
                values.get("parallel.busy_s", 0) / (self.jobs * wall))
        served = (values.get("runner.memory_hits", 0)
                  + values.get("runner.disk_hits", 0))
        total = served + values.get("runner.simulated", 0)
        if total:
            values["runner.hit_frac"] = served / total
        self.generic_sample(self.reference, self.reference)
        pairs = {app: (self.reference[(app, "none")],
                       self.reference[(app, "tpc")]) for app in self.apps}
        return self.single_core_metrics(pairs, self.reference.values())


# ----------------------------------------------------------------------
C1_FIRST = EXPERIMENT_CONFIG.with_drop_policy(DropPolicy.LOW_PRIORITY_FIRST)


class MixFourCore(Driver):
    """One seeded 4-core mix through ``simulate_multicore`` (the generic
    ``OoOCore.step`` loop with a shared L3 and DRAM).  One request is the
    mix under one prefetcher variant; the standalone single-core
    baselines for weighted speedup and a warm-up tpc run come before
    timing starts."""

    name = "mix-4core"
    calibrated = True

    def prepare(self) -> None:
        self.load_traces()
        self.mix, self.variants = streams.mix_stream(self.seed)
        self.alone = [simulate(self.traces[app], make_prefetcher("none"))
                      for app in self.mix]
        # A process's first tpc mix runs 30-40% slower than later ones
        # (README.md), so one runs before timing; the timed tpc requests
        # must reproduce it.
        self.reference: dict = {"tpc": self.execute("tpc")}

    def stream(self):
        return self.variants

    def execute(self, variant):
        traces = [self.traces[app] for app in self.mix]
        config = C1_FIRST if variant == "tpc/c1-first" else EXPERIMENT_CONFIG
        prefetcher = variant.split("/")[0]
        return simulate_multicore(
            traces, [make_prefetcher(prefetcher) for _ in traces], config)

    def after(self, variant, result, seconds: float) -> int:
        for app, core in zip(self.mix, result.per_core):
            if core.core.instructions != len(self.traces[app]):
                self.fail(f"{variant}: {app} retired "
                          f"{core.core.instructions} of "
                          f"{len(self.traces[app])} instructions")
        self.reference.setdefault(variant, result)
        if not self.check(variant, result, self.reference):
            self.fail(f"{variant}: differs from the first pass")
        instructions = result.total_instructions
        self.tracer.cell("generic", variant.split("/")[0], seconds,
                         instructions)
        self.tracer.add("multicore.step_s", seconds)
        self.tracer.add("multicore.instructions", instructions)
        return instructions

    def finish(self) -> dict:
        tracer = self.tracer
        ws = {variant: result.weighted_speedup(self.alone)
              for variant, result in self.reference.items()}
        for variant, name in zip(streams.MIX_VARIANTS,
                                 ("ws_none", "ws_tpc", "ws_tpc_c1first")):
            tracer.add(f"multicore.{name}", ws[variant])
        values = tracer.values
        if values.get("multicore.instructions"):
            values["multicore.ns_per_instr"] = (
                values["multicore.step_s"] * 1e9
                / values["multicore.instructions"])
        none, tpc = self.reference["none"], self.reference["tpc"]
        tracer.add("multicore.dram_lines", tpc.dram_traffic)
        for name, result in (("none", none), ("tpc", tpc)):
            memory_metrics(tracer, name, result.per_core,
                           [result.per_core[0].dram])
        prefetch_metrics(tracer, none.per_core, tpc.per_core,
                         [core for r in self.reference.values()
                          for core in r.per_core])
        return {"tpc_speedup": ws["tpc"] / ws["none"],
                "tpc_traffic_ratio": tpc.dram_traffic / none.dram_traffic}


DRIVERS = {cls.name: cls for cls in (MatrixSweep, ReportSession,
                                     MixFourCore)}


def pool_peak_kb() -> int:
    """Summed peak RSS (``VmHWM``, kB) of the live pool's workers.  Pages
    a forked worker shares with this process count in both, as in any
    sum of RSS."""
    import repro.parallel as parallel

    processes = getattr(parallel._EXECUTOR, "_processes", None) or {}
    total = 0
    for pid in list(processes):
        try:
            with open(f"/proc/{pid}/status") as status:
                total += sum(int(line.split()[1]) for line in status
                             if line.startswith("VmHWM:"))
        except OSError:  # already exited
            pass
    return total


def counters_snapshot() -> dict:
    """Process-wide trace and kernel counters (for deltas)."""
    snapshot = dict(trace_counters())
    snapshot.update(kernel_counters())
    return snapshot


def percentile(values, q: float) -> float:
    """Inclusive-method percentile ``q`` in (0, 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q) - 1]
