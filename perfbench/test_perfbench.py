"""Self-tests of the benchmark itself (not of the simulator).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
They need no simulation: streams are pure functions of the seed, and
the metric list is checked against the rules ``BENCHMARK.json`` must
meet.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import streams  # noqa: E402
import tracing  # noqa: E402

PREFETCHERS = list(tracing.PREFETCHERS)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def streams_for(seed: int) -> tuple:
    return (streams.matrix_stream(seed, PREFETCHERS),
            streams.report_stream(seed),
            streams.mix_stream(seed))


def test_same_seed_same_request_stream():
    for seed in (1, 7, 12345):
        assert streams_for(seed) == streams_for(seed)


def test_different_seed_different_sample():
    for seed in range(1, 11):
        for before, after in zip(streams_for(seed), streams_for(seed + 1)):
            assert before != after
    samples = {tuple(sorted(streams.panel(seed, "matrix-sweep")))
               for seed in range(1, 21)}
    assert len(samples) == 2
    mixes = {streams.mix_stream(seed)[0] for seed in range(1, 11)}
    assert len(mixes) > 1


def test_panels_take_one_app_per_suite():
    suites = {app.split(".")[0] for app in streams.PANEL}
    assert len(suites) == len(streams.PANEL) == len(streams.STRATA)
    for seed in range(1, 21):
        apps = streams.panel(seed, "matrix-sweep")
        assert all(len(set(apps) & set(stratum)) == 1
                   for stratum in streams.STRATA)
        assert sorted(streams.panel(seed, "report-session")) == sorted(
            streams.REPORT_PANEL)
        assert set(streams.REPORT_PANEL) <= set(streams.PANEL)


def test_matrix_stream_covers_every_prefetcher_once_per_app():
    cells = streams.matrix_stream(3, PREFETCHERS)
    assert len(cells) == len(set(cells)) == 4 * len(PREFETCHERS)


def test_report_stream_keeps_percentiles_off_the_boundary():
    for seed in range(1, 11):
        requests = streams.report_stream(seed)
        simulating = sum(r[2] for r in requests)
        for passes in range(2, 7):  # a pass takes 2-5 s of a 10 s window
            # Inclusive-method positions; the simulating requests are the
            # costliest ``simulating * passes`` of ``n``.
            n = len(requests) * passes
            first_simulating = n - simulating * passes
            assert first_simulating <= 0.9 * (n - 1) < n - 1
            assert 0.5 * (n - 1) + 1 < first_simulating
        seen: set = set()
        for module, apps, simulates in requests:
            assert module in streams.REPORT_MODULES
            new = set(apps) - seen
            if simulates:
                assert len(new) == 1 and apps[-1] in new
            else:
                assert not new
            seen |= set(apps)


def test_mix_stream_runs_tpc_in_two_of_three_requests():
    for seed in range(1, 11):
        mix, variants = streams.mix_stream(seed)
        assert len(mix) == 4
        assert sorted(variants) == sorted(streams.MIX_VARIANTS)
        assert sum(v.startswith("tpc") for v in variants) == 2


def test_benchmark_json_meets_the_contract():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(data["command"]) <= 32
    assert all(isinstance(c, str) and len(c) <= 200
               for c in data["command"])
    assert 1 <= len(data["paths"]) <= 16
    for path in data["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(data["run_seconds"], int)
    assert 1 <= data["run_seconds"] <= 60
    assert 2 <= len(data["workloads"]) <= 8
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(data["end_to_end"]) <= 16
    assert 1 <= len(data["per_layer"]) <= 128
    names = [w["name"] for w in data["workloads"]]
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_per_layer_list_matches_the_tracer():
    assert spec()["per_layer"] == [
        {"name": name, "unit": tracing.unit_of(name),
         "better": tracing.better_of(name)}
        for name in tracing.PER_LAYER]


def test_workload_names_match_the_streams():
    assert [w["name"] for w in spec()["workloads"]] == list(
        streams.WORKLOADS)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *spec()["command"][1:], "--workload",
         "matrix-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
