"""Tests of the benchmark itself, at the tiny input sizes.

Run with:  python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import config  # noqa: E402
import metrics  # noqa: E402


def bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


_results = {}


def result(workload, trace, seed=1):
    key = (workload, trace, seed)
    if key not in _results:
        proc = bench(workload, trace, seed)
        assert proc.returncode == 0, proc.stderr
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(config.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER]


@pytest.mark.parametrize("workload", config.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] < out["attempted"]
    named = metrics.PER_LAYER if trace else metrics.E2E
    assert {name: unit for name, unit, *_ in named} == \
        {name: m["unit"] for name, m in out["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in out["metrics"].values())


def test_known_blowup_defect_shows_in_error_rate():
    out = result("walls", 0)
    assert out["failed"] >= 1
    assert out["metrics"]["success_rate"]["value"] < 1


@pytest.mark.parametrize("workload", config.WORKLOADS)
def test_per_layer_counts_repeat_exactly(workload):
    first = result(workload, 1)
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = [name for name, unit, *_ in metrics.PER_LAYER
              if unit == "count" and name != "trace.spans"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert any(first["metrics"][n]["value"] for n in counts)
    assert (first["attempted"], first["failed"]) == \
        (second["attempted"], second["failed"])


def test_failures_do_not_depend_on_the_number_of_samples():
    one = result("construct", 0)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct",
         "--seed", "1", "--seconds", "8", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    several = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (one["attempted"], one["failed"]) == \
        (several["attempted"], several["failed"])
    assert one["failed"] >= 1


def test_pacer_speed_scales_to_the_nominal_unit():
    import pacer

    n = pacer.NOMINAL_S
    records = [(float(t), n if t < 50 else 2 * n) for t in range(100)]
    speed = pacer.Speed(records)
    assert speed.scale(10, 40) == pytest.approx(1.0)
    assert speed.scale(60, 90) == pytest.approx(0.5)
    # an interval shorter than MIN_UNITS units takes the units around it
    assert len(speed.units(70.2, 70.4)) == pacer.MIN_UNITS
    assert speed.scale(70.2, 70.4) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        pacer.Speed(records[:pacer.MIN_UNITS - 1])


def test_pacer_process_is_stopped_with_its_records():
    import time

    import pacer

    with pacer.Pacer() as pace:
        time.sleep(0.5)
        records = pace.stop()
    assert pace.proc.returncode is not None
    assert len(records) >= 1 and all(cpu > 0 for _, cpu in records)


def _run_in_process(workload, monkeypatch, patch):
    import workloads
    from runner import Runner

    patch(monkeypatch, workloads)
    R = Runner(traced=False)
    state = workloads.setup(workload, R, 1, "tiny")
    for name, job in workloads.jobs(workload, False):
        with R.job(name):
            job(R, state)
    return R


def test_corrupted_ball_is_counted_as_failure(monkeypatch):
    def patch(mp, wl):
        real = wl.rg.ball_X

        def short_ball(g, radius):
            b = real(g, radius)
            return b.span(b.vertex_ids[:-1])

        mp.setattr(wl.rg, "ball_X", short_ball)

    R = _run_in_process("construct", monkeypatch, patch)
    bad = [f for f in R.failures if f["op"].startswith("raag_geometry.ball_X")]
    assert bad and all(f["known"] is None for f in bad)
    assert R.report()["failed_by_layer"]["raag_geometry"] == len(
        {f["op"] for f in bad})


def test_corrupted_block_map_is_counted_as_failure(monkeypatch):
    def patch(mp, wl):
        real = wl.sc.semiconjugate

        def shifted(spec, B, radius):
            res = real(spec, B, radius)
            x = sorted(res.tip_map)[len(res.tip_map) // 2 + 1]
            res.block_map[x] += 1
            return res

        mp.setattr(wl.sc, "semiconjugate", shifted)

    R = _run_in_process("tracks", monkeypatch, patch)
    assert R.report()["failed"] >= 3
    assert all(f["known"] is None for f in R.failures)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("tracks", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
