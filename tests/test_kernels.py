"""Specialized replay kernels (docs/performance.md, "Replay kernels").

The contract under test is bit-identity: a specialized kernel is a
partial evaluation of the generic step loop, so it may change wall
clock but never a number.  These tests pin that registry-wide against
the ``REPRO_KERNEL=generic`` escape hatch, pin workload-affine cell
fusion against its own escape hatch (``REPRO_FUSION=0``) at ``--jobs
4``, check the derived trace columns against fresh derivation, and
follow the kernel-variant attribution through results, manifests, and
the fault journal.  The batch replay tier gets its own section: tier
selection, scalar/generic escape hatches, degenerate segmentations, and
identity under injected cache corruption.  The segmented tier (hooked
cells) mirrors it: hook islands at the trace boundaries, back-to-back
islands, the all-event degrade to scalar, and chaos corrupt/resume.

The gate matrix — ``spec.{libquantum,mcf,milc,astar}`` x
``{none,bop,tpc}``, the paper's hot cells — pins every tier at full
workload size: no cell falls back to the generic loop, the hook-free
cells run the batch tier and the bop/tpc cells the segmented tier, each
bit-identical to its escape hatch.  The same matrix carries the tiers'
speed gates, marked ``perfgate`` and deselected by default (run them
with ``pytest -m perfgate``): specialized >= 1.0x over generic, batch
>= 2.0x and segmented >= 1.5x (aggregate) over scalar, and a 2-job
parallel pass faster than serial unless the pool falls back to serial.
"""

from __future__ import annotations

import gc
import json
import time

import pytest

from conftest import build_chain_trace, build_strided_trace
from repro.engine.batch import (BATCH_VARIANT, SEGMENT_PREFIX,
                                segment_max_coverage)
from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine.kernel import (GENERIC, KERNEL_ENV, SCALAR, kernel_flags,
                                 variant_name)
from repro.engine.system import simulate
from repro.experiments.runner import simulate_spec
from repro.isa import Assembler, Machine
from repro.isa.trace import (
    DERIVED_FIELDS,
    LINE_SHIFT,
    CompiledTrace,
    compile_trace,
    derived_counters,
)
from repro.parallel import FUSION_ENV, _fusion_units, run_jobs, shutdown_pool
from repro.prefetcher_registry import available_prefetchers, make_prefetcher
from repro.telemetry import Telemetry
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def strided():
    return compile_trace(build_strided_trace(elements=1500, name="k-strided"))


@pytest.fixture(scope="module")
def chain():
    return compile_trace(build_chain_trace(nodes=1200, name="k-chain"))


def _identity(result) -> tuple:
    """Everything a simulation reports, for exact comparison."""
    return (
        result.core,
        result.l1d,
        result.l2,
        result.l3,
        result.dram,
        result.prefetch,
        result.miss_lines_l1,
        result.miss_lines_l2,
        result.attempted_prefetch_lines,
        result.attempted_by_component,
        result.pollution_misses_l1,
        result.pollution_misses_l2,
    )


# ----------------------------------------------------------------------
# Registry-wide bit identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_prefetchers())
def test_specialized_matches_generic_registry_wide(name, strided, chain,
                                                   monkeypatch):
    for trace in (strided, chain):
        fast = simulate(trace, make_prefetcher(name))
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
        slow = simulate(trace, make_prefetcher(name))
        monkeypatch.delenv(KERNEL_ENV)
        # Hook-free cells may climb to the batch kernel; hooked
        # leanmem cells to the segmented kernel.
        assert fast.kernel.startswith(("fast", "batch", "segmented")), name
        assert slow.kernel == GENERIC
        assert _identity(fast) == _identity(slow), (name, trace.name)


def test_specialized_matches_generic_with_telemetry(strided, monkeypatch):
    """Telemetry disables the lean memory path but not specialization."""
    fast = simulate(strided, make_prefetcher("tpc"), telemetry=Telemetry())
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow = simulate(strided, make_prefetcher("tpc"), telemetry=Telemetry())
    monkeypatch.delenv(KERNEL_ENV)
    assert fast.kernel.startswith("fast")
    assert "leanmem" not in fast.kernel
    assert _identity(fast) == _identity(slow)


def test_lean_flag_set_without_telemetry(strided):
    result = simulate(strided, make_prefetcher("none"))
    assert "leanmem" in result.kernel


# ----------------------------------------------------------------------
# Kernel selection and the escape hatch
# ----------------------------------------------------------------------
def test_object_trace_falls_back_to_generic():
    trace = build_strided_trace(elements=300, name="k-object")
    result = simulate(trace)
    assert result.kernel == GENERIC


def test_env_escape_hatch_disables_specialization(strided, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    result = simulate(strided)
    assert result.kernel == GENERIC


def test_kernel_flags_none_under_escape_hatch(strided, monkeypatch):
    class _Probe:
        trace = strided
        _observe_instruction = None
        _observe_access = None
        _on_access = None
        _on_fill = None
        _sampler = None
        _branch_predictor = object()

        class hierarchy:
            tracker = None
            telemetry = None

    assert kernel_flags(_Probe()) is not None
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    assert kernel_flags(_Probe()) is None


def test_variant_name_encodes_flags():
    assert variant_name((False,) * 5 + (True, False)) == "fast+staticbp"
    name = variant_name((True, True, True, True, True, False, True))
    assert name == "fast+instr+observe+issue+fill+sample+leanmem+dynbp"


# ----------------------------------------------------------------------
# Derived columns
# ----------------------------------------------------------------------
def test_derived_columns_match_primary_columns(strided):
    line, mpc, disp, bp_miss = strided.derived_columns()
    assert list(line) == [a >> LINE_SHIFT for a in strided.addr]
    assert list(mpc) == [p ^ r for p, r in zip(strided.pc, strided.ras_top)]
    assert len(disp) == len(bp_miss) == len(strided)


def test_derived_columns_round_trip(chain):
    original = chain.derived_columns()
    blobs = chain.column_bytes()
    derived = chain.derived_bytes()
    before = derived_counters()

    restored = CompiledTrace.from_column_bytes(chain.name, blobs,
                                               chain.memory, derived=derived)
    after = derived_counters()
    assert after["derived_hits"] == before["derived_hits"] + 1
    # Restored from the cache blobs: no derivation pass happened — the
    # arrays arrive pre-built — yet the list views materialized from
    # them are exactly what a fresh derivation produces.
    assert restored._derived_arrays is not None
    assert restored.derived_columns() == original
    assert after["derived_builds"] == derived_counters()["derived_builds"]

    rebuilt = CompiledTrace.from_column_bytes(chain.name, blobs, chain.memory)
    assert rebuilt._derived is None and rebuilt._derived_arrays is None
    assert rebuilt.derived_columns() == original
    assert set(DERIVED_FIELDS) == set(derived)


# ----------------------------------------------------------------------
# Workload-affine cell fusion
# ----------------------------------------------------------------------
def test_fusion_units_group_by_workload(monkeypatch):
    normalized = [("a", "s1", ""), ("b", "s1", ""), ("a", "s2", ""),
                  ("b", "s2", "")]
    # Fine-grained workload-affine units — ceil(4 / (1 * 4)) = 1 cell
    # each, grouped by workload.
    units = _fusion_units([0, 1, 2, 3], normalized, 1)
    assert units == [(0,), (2,), (1,), (3,)]
    monkeypatch.setenv(FUSION_ENV, "0")
    assert _fusion_units([0, 1, 2, 3], normalized, 1) == [
        (0,), (1,), (2,), (3,)]


def test_fusion_identity_at_jobs_4(monkeypatch):
    matrix = [(w, s) for w in ("spec.libquantum", "spec.astar")
              for s in ("none", "bop")]
    try:
        fused = run_jobs(matrix, EXPERIMENT_CONFIG, 4)
        shutdown_pool()
        monkeypatch.setenv(FUSION_ENV, "0")
        singleton = run_jobs(matrix, EXPERIMENT_CONFIG, 4)
    finally:
        shutdown_pool()
    assert len(fused) == len(singleton) == len(matrix)
    for cell, a, b in zip(matrix, fused, singleton):
        assert _identity(a) == _identity(b), cell
        assert a.kernel == b.kernel, cell
        assert a.kernel.startswith(("fast", "batch", "segmented")), cell


# ----------------------------------------------------------------------
# Batch replay tier (docs/performance.md, "Batch replay tier")
# ----------------------------------------------------------------------
def test_batch_matches_scalar_and_generic(strided, chain, monkeypatch):
    """Hook-free cells climb to the batch tier; ``REPRO_KERNEL=scalar``
    pins the exec-specialized kernel; all three tiers are bit-identical."""
    for trace in (strided, chain):
        batch = simulate(trace, make_prefetcher("none"))
        monkeypatch.setenv(KERNEL_ENV, SCALAR)
        scalar = simulate(trace, make_prefetcher("none"))
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
        generic = simulate(trace, make_prefetcher("none"))
        monkeypatch.delenv(KERNEL_ENV)
        assert batch.kernel == BATCH_VARIANT, trace.name
        assert scalar.kernel == "fast+leanmem+staticbp"
        assert generic.kernel == GENERIC
        assert _identity(batch) == _identity(scalar), trace.name
        assert _identity(batch) == _identity(generic), trace.name


def test_batch_steps_aside_for_sampler_with_identical_windows(strided,
                                                              monkeypatch):
    """A TimeSeriesSampler is a live hook: the batch tier must yield to
    the scalar kernels, and the sampled windows must match the generic
    loop sample for sample."""
    from repro.telemetry.sampler import TimeSeriesSampler

    fast_sampler = TimeSeriesSampler(interval=256)
    fast = simulate(strided, make_prefetcher("none"),
                    telemetry=Telemetry(sampler=fast_sampler))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow_sampler = TimeSeriesSampler(interval=256)
    slow = simulate(strided, make_prefetcher("none"),
                    telemetry=Telemetry(sampler=slow_sampler))
    monkeypatch.delenv(KERNEL_ENV)
    assert not fast.kernel.startswith("batch")
    assert "sample" in fast.kernel
    assert _identity(fast) == _identity(slow)
    assert len(fast_sampler.samples) > 0
    assert fast_sampler.samples == slow_sampler.samples


def _compile_program(name, build, max_instructions=50_000):
    asm = Assembler(name=name)
    build(asm)
    asm.halt()
    return compile_trace(Machine(max_instructions=max_instructions)
                         .run(asm.assemble()))


def _all_alu(asm):
    asm.movi("r1", 7)
    for _ in range(40):
        asm.add("r2", "r2", "r1")


def _all_memory(asm):
    asm.movi("r1", 0x40000)
    for i in range(64):
        asm.load("r2", "r1", 8 * i)


def _tiny(asm):
    asm.movi("r1", 0x40000)
    asm.load("r2", "r1", 0)


@pytest.mark.parametrize("case,build", [
    ("alu-only", _all_alu),        # no events at all: one long stretch
    ("mem-only", _all_memory),     # every instruction an event
    ("tiny", _tiny),               # trace shorter than any stretch
])
def test_batch_segment_edge_cases(case, build, monkeypatch):
    """Degenerate segmentations — an event-free trace (empty event
    column), back-to-back events (empty stretches), and a trace shorter
    than one stretch — replay bit-identically on every tier."""
    trace = _compile_program(f"k-seg-{case}", build)
    events = trace.segment_events()
    if case == "alu-only":
        assert len(events) == 0
    elif case == "mem-only":
        assert len(events) == 64  # one per load, none for movi/halt
    batch = simulate(trace, make_prefetcher("none"))
    monkeypatch.setenv(KERNEL_ENV, SCALAR)
    scalar = simulate(trace, make_prefetcher("none"))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic = simulate(trace, make_prefetcher("none"))
    monkeypatch.delenv(KERNEL_ENV)
    assert batch.kernel == BATCH_VARIANT, case
    assert _identity(batch) == _identity(scalar) == _identity(generic), case


def test_batch_identity_under_chaos_corrupt_and_resume(tmp_path):
    """A chaos-corrupted cache write under the batch tier is a miss on
    re-read; the resumed runner re-simulates once and reproduces the
    reference figures exactly."""
    from repro.experiments.runner import ExperimentRunner
    from repro.faults import chaos, fault_counters, reset_fault_counters

    app = "spec.libquantum"
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "journal")
    reference = simulate_spec(app, "none", "", EXPERIMENT_CONFIG)
    assert reference.kernel == BATCH_VARIANT

    reset_fault_counters()
    chaos.set_chaos(chaos.parse_spec(f"corrupt=result:{app}/none"))
    try:
        writer = ExperimentRunner(cache_dir=cache, journal_dir=journal)
        first = writer.run(app, "none")
    finally:
        chaos.set_chaos(None)
    resumed = ExperimentRunner(cache_dir=cache, journal_dir=journal)
    second = resumed.run(app, "none")
    assert _identity(first) == _identity(reference)
    assert _identity(second) == _identity(reference)
    assert resumed.counters["simulated"] == 1  # the bad entry was a miss
    assert fault_counters()["cache_corrupt"] >= 1


# ----------------------------------------------------------------------
# Segmented replay tier (hooked cells; docs/performance.md)
# ----------------------------------------------------------------------
def _event_first(asm):
    asm.load("r2", "r1", 0)          # hook event at position 0
    for _ in range(40):
        asm.add("r3", "r3", "r2")


def _event_burst(asm):
    asm.movi("r1", 0x40000)
    for _ in range(10):
        asm.add("r3", "r3", "r1")
    for i in range(8):               # back-to-back hook events
        asm.load("r2", "r1", 8 * i)
    for _ in range(30):
        asm.add("r3", "r3", "r1")


def _event_last(asm):
    asm.movi("r1", 0x40000)
    for _ in range(40):
        asm.add("r3", "r3", "r1")
    asm.load("r2", "r1", 0)          # hook event on the final load


@pytest.mark.parametrize("spec", ["bop", "tpc"])
@pytest.mark.parametrize("case,build", [
    ("event-first", _event_first),   # island before any stretch
    ("event-burst", _event_burst),   # empty stretches between islands
    ("event-last", _event_last),     # island closes the trace
])
def test_segmented_hook_position_edge_cases(case, build, spec, monkeypatch):
    """Hook islands at the trace boundaries and back-to-back replay
    bit-identically against both escape hatches, with live hooks."""
    trace = _compile_program(f"k-seghook-{case}", build)
    events = trace.segment_events().tolist()
    if case == "event-first":
        assert events[0] == 0
    elif case == "event-burst":
        assert any(b - a == 1 for a, b in zip(events, events[1:]))
    else:
        assert events[-1] == len(trace) - 1
    seg = simulate(trace, make_prefetcher(spec))
    monkeypatch.setenv(KERNEL_ENV, SCALAR)
    scalar = simulate(trace, make_prefetcher(spec))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic = simulate(trace, make_prefetcher(spec))
    monkeypatch.delenv(KERNEL_ENV)
    assert seg.kernel.startswith("segmented+"), (case, spec)
    assert scalar.kernel.startswith("fast+"), (case, spec)
    assert _identity(seg) == _identity(scalar), (case, spec)
    assert _identity(seg) == _identity(generic), (case, spec)


def test_segmented_all_event_trace_degrades_to_scalar(monkeypatch):
    """A trace whose every instruction is a hook event exceeds the
    coverage ceiling: the cell must degrade to the scalar specialized
    kernel (no segmented attempt), bit-identically."""
    trace = _compile_program("k-seg-dense", _all_memory)
    assert (len(trace.segment_events()) / len(trace)
            > segment_max_coverage())
    fast = simulate(trace, make_prefetcher("bop"))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic = simulate(trace, make_prefetcher("bop"))
    monkeypatch.delenv(KERNEL_ENV)
    assert fast.kernel.startswith("fast+")
    assert _identity(fast) == _identity(generic)


def test_segmented_identity_under_chaos_corrupt_and_resume(tmp_path):
    """A chaos-corrupted cache write under the segmented tier is a miss
    on re-read; the resumed runner re-simulates once and reproduces the
    reference figures exactly."""
    from repro.experiments.runner import ExperimentRunner
    from repro.faults import chaos, fault_counters, reset_fault_counters

    app = "spec.libquantum"
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "journal")
    reference = simulate_spec(app, "bop", "", EXPERIMENT_CONFIG)
    assert reference.kernel.startswith("segmented+")

    reset_fault_counters()
    chaos.set_chaos(chaos.parse_spec(f"corrupt=result:{app}/bop"))
    try:
        writer = ExperimentRunner(cache_dir=cache, journal_dir=journal)
        first = writer.run(app, "bop")
    finally:
        chaos.set_chaos(None)
    resumed = ExperimentRunner(cache_dir=cache, journal_dir=journal)
    second = resumed.run(app, "bop")
    assert _identity(first) == _identity(reference)
    assert _identity(second) == _identity(reference)
    assert resumed.counters["simulated"] == 1  # the bad entry was a miss
    assert fault_counters()["cache_corrupt"] >= 1


# ----------------------------------------------------------------------
# Gate matrix: every tier on the paper's hot cells
# ----------------------------------------------------------------------
GATE_MATRIX = [(w, p)
               for w in ("spec.libquantum", "spec.mcf", "spec.milc",
                         "spec.astar")
               for p in ("none", "bop", "tpc")]
BATCH_CELLS = [cell for cell in GATE_MATRIX if cell[1] == "none"]
SEGMENTED_CELLS = [cell for cell in GATE_MATRIX if cell[1] != "none"]


def _run_cells(cells) -> list:
    return [simulate_spec(w, p, "", EXPERIMENT_CONFIG) for w, p in cells]


@pytest.fixture(scope="module")
def gate_results():
    """Each gate-matrix cell under the default dispatch (``None``) and
    under each ``REPRO_KERNEL`` escape hatch."""
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        for tier in (None, SCALAR, GENERIC):
            if tier is not None:
                mp.setenv(KERNEL_ENV, tier)
            results[tier] = dict(zip(GATE_MATRIX, _run_cells(GATE_MATRIX)))
    return results


def test_gate_matrix_specialized_matches_generic(gate_results):
    default, generic = gate_results[None], gate_results[GENERIC]
    fallbacks = [cell for cell in GATE_MATRIX
                 if default[cell].kernel == GENERIC]
    assert not fallbacks, f"generic fallback selected for {fallbacks}"
    for cell in GATE_MATRIX:
        assert generic[cell].kernel == GENERIC
        assert _identity(default[cell]) == _identity(generic[cell]), cell


def test_gate_matrix_batch_cells_match_scalar(gate_results):
    default, scalar = gate_results[None], gate_results[SCALAR]
    for cell in BATCH_CELLS:
        assert default[cell].kernel == BATCH_VARIANT, cell
        assert scalar[cell].kernel.startswith("fast+"), cell
        assert _identity(default[cell]) == _identity(scalar[cell]), cell


def test_gate_matrix_segmented_cells_match_scalar(gate_results):
    default, scalar = gate_results[None], gate_results[SCALAR]
    for cell in SEGMENTED_CELLS:
        assert default[cell].kernel.startswith(SEGMENT_PREFIX), cell
        assert scalar[cell].kernel.startswith("fast+"), cell
    broken = [cell for cell in SEGMENTED_CELLS
              if _identity(default[cell]) != _identity(scalar[cell])]
    assert not broken, f"segmented tier diverged from scalar on {broken}"


# ----------------------------------------------------------------------
# Gate matrix: speed gates (``pytest -m perfgate``; host-timed, so not
# part of the default run)
# ----------------------------------------------------------------------
def _seconds(cells) -> float:
    started = time.perf_counter()
    _run_cells(cells)
    return time.perf_counter() - started


def _fastest_of_3(cells) -> float:
    """One untimed settle pass (kernel compilation, plan builds, the
    interpreter's bytecode warm-up), then the fastest of 3 timed
    passes: host noise only ever slows a pass down."""
    _run_cells(cells)
    return min(_seconds(cells) for _ in range(3))


@pytest.fixture(scope="module")
def warm_gate_traces():
    """Build the gate matrix's traces (and their record views) once and
    move everything alive into the GC's permanent generation, so
    rescanning trace objects is not timed as simulation."""
    for workload in dict.fromkeys(w for w, _ in GATE_MATRIX):
        get_workload(workload).trace().records
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture(scope="module")
def serial_seconds(warm_gate_traces):
    return _fastest_of_3(GATE_MATRIX)


@pytest.mark.perfgate
def test_specialized_not_slower_than_generic(serial_seconds, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    speedup = round(_seconds(GATE_MATRIX) / serial_seconds, 2)
    print(f"specialized vs generic: {speedup}x")
    assert speedup >= 1.0


@pytest.mark.perfgate
def test_batch_tier_2x_over_scalar(warm_gate_traces, monkeypatch):
    batch = _fastest_of_3(BATCH_CELLS)
    monkeypatch.setenv(KERNEL_ENV, SCALAR)
    speedup = round(_fastest_of_3(BATCH_CELLS) / batch, 2)
    print(f"batch vs scalar: {speedup}x over {len(BATCH_CELLS)} cells")
    assert speedup >= 2.0


@pytest.mark.perfgate
def test_segmented_tier_1_5x_over_scalar(warm_gate_traces, monkeypatch):
    def per_cell() -> list:
        _run_cells(SEGMENTED_CELLS)
        return [min(_seconds([cell]) for _ in range(3))
                for cell in SEGMENTED_CELLS]

    segmented = per_cell()
    monkeypatch.setenv(KERNEL_ENV, SCALAR)
    scalar = per_cell()
    for cell, seg, sca in zip(SEGMENTED_CELLS, segmented, scalar):
        print(f"segmented {cell[0]}/{cell[1]}: {sca / seg:.2f}x")
    speedup = round(sum(scalar) / sum(segmented), 2)
    print(f"segmented vs scalar: {speedup}x aggregate")
    assert speedup >= 1.5


@pytest.mark.perfgate
def test_parallel_pass_faster_than_serial(serial_seconds):
    timings: dict = {}
    started = time.perf_counter()
    run_jobs(GATE_MATRIX, EXPERIMENT_CONFIG, 2, timings=timings,
             auto_serial=True)
    elapsed = time.perf_counter() - started
    shutdown_pool()
    if timings.get("fallback"):
        pytest.skip(f"serial fallback: {timings.get('fallback_reason')}")
    speedup = round(serial_seconds / elapsed, 2)
    print(f"parallel at 2 jobs vs serial: {speedup}x")
    assert speedup > 1.0


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def test_manifest_carries_kernel_but_run_id_ignores_it(strided, monkeypatch):
    fast = simulate(strided, make_prefetcher("bop"), spec="bop")
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow = simulate(strided, make_prefetcher("bop"), spec="bop")
    monkeypatch.delenv(KERNEL_ENV)
    assert fast.manifest.kernel == fast.kernel != GENERIC
    assert slow.manifest.kernel == GENERIC
    # Bit-identical by contract, so both land in the same run directory.
    assert fast.manifest.run_id == slow.manifest.run_id
    assert fast.manifest.as_dict()["kernel"] == fast.kernel


def test_journal_records_kernel(tmp_path):
    from repro.faults.journal import MatrixJournal

    journal = MatrixJournal(tmp_path, "cfgdigest", code_version="v-test")
    journal.record_ok("spec.astar", "bop", "", seconds=1.0,
                      kernel="fast+issue+fill+leanmem+staticbp")
    records = [json.loads(line)
               for line in journal.path.read_text().splitlines()]
    assert records[-1]["kernel"] == "fast+issue+fill+leanmem+staticbp"


def test_events_verb_reads_journal_with_kernel(tmp_path):
    """``repro events`` on a journal file attributes cells to kernels."""
    from repro.faults.journal import MatrixJournal
    from repro.telemetry import (filter_events, normalize_record,
                                 read_jsonl, summarize)

    journal = MatrixJournal(tmp_path, "cfgdigest", code_version="v-test")
    journal.record_ok("spec.mcf", "tpc", "", attempts=2, seconds=2.5,
                      kernel="fast+instr+observe+issue+leanmem+staticbp")
    events = [normalize_record(r) for r in read_jsonl(journal.path)]
    assert events[0]["kind"] == "cell_ok"
    assert events[0]["component"] == "tpc"
    assert events[0]["level"] == 2
    assert events[0]["dur"] == 2.5
    assert list(filter_events(events, kind="cell_ok")) == events
    summary = summarize(events)
    assert summary["by_kernel"] == {
        "fast+instr+observe+issue+leanmem+staticbp": 1}
    # Lifecycle records pass through normalization untouched, and their
    # summaries stay kernel-free.
    lifecycle = {"kind": "issued", "cycle": 7, "line": 1, "component": "T2",
                 "level": 1, "pc": 4, "dur": 0}
    assert normalize_record(lifecycle) is lifecycle
    assert "by_kernel" not in summarize([lifecycle])
