"""The benchmark's own tests (tiny models; about a minute in total).

    python -m pytest ddabench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ddabench.layers import TARGETS
from ddabench.measure import (
    END_TO_END,
    PROBE_REF_S,
    HostSpeed,
    check_final_state,
    median_hd,
    run_episode,
    set_up,
    tail,
)
from ddabench.spans import SpanRecorder, _resolve, installed
from ddabench.workloads import WORKLOADS, modelled_seconds
from repro.obs.tracer import Tracer
from repro.util.timing import PIPELINE_MODULES

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _engine(workload: str, seed: int = 3, tracer=None):
    return set_up(WORKLOADS[workload], seed, 0, "tiny", tracer=tracer).engine


def _run(engine, steps: int):
    return [engine.run(steps=1) for _ in range(steps)]


# ----------------------------------------------------------------------
# timing from outside changes nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["slope_gpu", "rocks_gpu"])
def test_stepwise_runs_match_one_run(workload):
    steps = 6
    looped = _engine(workload)
    records = [r for res in _run(looped, steps) for r in res.steps]
    whole = _engine(workload)
    result = whole.run(steps=steps)
    assert np.array_equal(looped.system.vertices, whole.system.vertices)
    assert np.array_equal(looped.system.velocities, whole.system.velocities)
    assert looped.device.total_time == whole.device.total_time
    assert [(r.cg_iterations, r.retries, r.n_contacts) for r in records] == [
        (r.cg_iterations, r.retries, r.n_contacts) for r in result.steps
    ]


def _targets_snapshot():
    """Every attribute each target currently resolves to, by identity."""
    out = {}
    for _, target in TARGETS:
        owner, attr = _resolve(target)
        value = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        out[target] = value
    return out


@pytest.mark.parametrize("workload", ["slope_gpu", "slope_domains"])
def test_traced_run_is_bit_identical_and_unpatched_after(workload):
    steps = 5
    plain = _engine(workload)
    plain_ep = run_episode(plain, steps)
    before = _targets_snapshot()
    recorder = SpanRecorder()
    with installed(recorder, TARGETS):
        traced = _engine(workload, tracer=Tracer())
        traced_ep = run_episode(traced, steps, recorder)
    assert _targets_snapshot() == before
    assert np.array_equal(plain_ep.vertices, traced_ep.vertices)
    assert plain_ep.modelled_s == traced_ep.modelled_s
    assert modelled_seconds(plain) == modelled_seconds(traced)
    assert recorder.calls("solvers.pcg") > 0
    assert recorder.calls("gpu.launch") > 0
    if workload == "slope_domains":
        assert recorder.calls("domain.spmv") > 0
        assert recorder.calls("spmv.hsbcsr_spmv") == 0
    else:
        assert recorder.calls("spmv.hsbcsr_spmv") > 0


def test_patches_are_undone_when_the_body_raises():
    before = _targets_snapshot()
    with pytest.raises(RuntimeError):
        with installed(SpanRecorder(), TARGETS):
            raise RuntimeError("boom")
    assert _targets_snapshot() == before


def test_span_walls_agree_with_module_times():
    """Spans recorded around the public calls inside a pipeline stage
    account for that stage's measured wall, up to the stage's own glue
    and the wrappers' overhead."""
    tracer = Tracer()
    epoch = time.perf_counter() - tracer.now()
    recorder = SpanRecorder()
    with installed(recorder, TARGETS):
        engine = _engine("slope_gpu", tracer=tracer)
        ep = run_episode(engine, 4, recorder)
    summary = tracer.module_summary()
    for module in PIPELINE_MODULES:
        assert summary[module]["wall_s"] == pytest.approx(
            ep.module_wall[module], rel=1e-9)
    stage_spans = [s for s in tracer.spans if s.name in PIPELINE_MODULES]
    covered = dict.fromkeys(PIPELINE_MODULES, 0.0)
    for name, start, dur, depth in recorder.spans:
        if depth != 1:  # direct children of the engine.step span
            continue
        t = start - epoch
        for s in stage_spans:
            if s.start <= t and t + dur <= s.start + s.wall_s + 1e-6:
                covered[s.name] += dur
                break
    for module in PIPELINE_MODULES:
        assert covered[module] <= ep.module_wall[module] * (1 + 1e-6)
    for module in ("contact_detection", "equation_solving"):
        assert covered[module] >= 0.85 * ep.module_wall[module], module


def test_self_time_excludes_children():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    rec.wrap("outer", body)()
    assert rec.calls("outer") == rec.calls("inner") == 1
    assert rec.total_s("outer") >= rec.total_s("inner")
    assert rec.self_s("outer") == pytest.approx(
        rec.total_s("outer") - rec.total_s("inner"))
    assert rec.self_s("inner") == rec.total_s("inner")


def test_same_name_nesting_counts_once():
    rec = SpanRecorder()
    base = rec.wrap("apply", lambda: 1)
    outer = rec.wrap("apply", lambda: base() + 1)
    assert outer() == 2
    assert rec.calls("apply") == 1


# ----------------------------------------------------------------------
# inputs and output checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["slope_gpu", "rocks_gpu"])
def test_seed_changes_the_model_and_repeats_exactly(workload):
    build = WORKLOADS[workload].build
    a, b = build(1, 0, "tiny"), build(1, 0, "tiny")
    assert np.array_equal(a.vertices, b.vertices)
    for other in (build(2, 0, "tiny"), build(1, 1, "tiny")):
        assert a.vertices.shape != other.vertices.shape or not np.array_equal(
            a.vertices, other.vertices)


def test_rock_jitter_is_bounded_below_the_gap():
    from ddabench import workloads as w

    base = w.scaled_case2_system(3, 4)
    jittered = w.rocks_system(5, 0, 3, 4)
    shift = jittered.centroids - base.centroids
    assert np.array_equal(shift[:2], np.zeros((2, 2)))
    reach = w._ROCK_JITTER * w._ROCK_GAP
    assert np.abs(shift).max() <= reach + 1e-12
    assert np.abs(shift[2:]).max() > 0
    # two neighbours moving towards each other never close the gap
    assert 2 * np.sqrt(2) * reach < w._ROCK_GAP


def test_final_state_check_flags_a_moved_vertex():
    engine = _engine("rocks_gpu")
    ep = run_episode(engine, 3)
    assert ep.failed == 0 and ep.attempted == 3
    moved = run_episode(_engine("rocks_gpu"), 3)
    unchecked = run_episode(_engine("rocks_gpu"), 3)
    moved.vertices = moved.vertices + 1e-3
    check_final_state([ep, moved, unchecked], [ep.vertices] * 2,
                      tolerance=1e-6)
    assert ep.failed == 0
    assert moved.failed == 1 and "final vertices" in moved.problems[0]
    assert unchecked.failed == 0  # beyond the stored episodes


def test_slope_without_jitter_is_build_slope_model():
    from ddabench import workloads as w
    from repro.meshing.slope_models import build_slope_model

    saved = w._JOINT_JITTER
    w._JOINT_JITTER = 0.0
    try:
        replica = w.slope_system(123, 0, 9.0)
    finally:
        w._JOINT_JITTER = saved
    original = build_slope_model(
        width=80.0, height=40.0, slope_angle_deg=55.0,
        joint_spacing=9.0, seed=w.DEFAULT_SEED,
    )
    assert np.array_equal(replica.vertices, original.vertices)
    assert replica.fixed_points == original.fixed_points


def test_host_normalisation_scales_each_step():
    host = HostSpeed()
    ep = run_episode(_engine("rocks_gpu"), 3, host=host)
    assert len(ep.factors) == len(ep.walls) == 3
    # a probe takes PROBE_REF_S on a calm host; the factor is its inverse
    assert all(0.05 < f < 20.0 for f in ep.factors)
    assert host.probe() > 0.0 and PROBE_REF_S > 0.0


def test_median_hd_is_smooth_across_two_modes():
    assert median_hd([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    low = median_hd([0.2] * 16 + [0.4] * 15)
    high = median_hd([0.2] * 15 + [0.4] * 16)
    assert 0.2 < low < 0.3 < high < 0.4
    assert high - low < 0.05  # one step moving mode moves it a little


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)
    assert sum(1 for v in range(100) if v > value) == 10
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)


# ----------------------------------------------------------------------
# the declared vocabulary and the command's contract
# ----------------------------------------------------------------------
def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _bench(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "ddabench/run.py", *args], cwd=tmp_root,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_declared_ones(trace):
    proc = _bench(ROOT, "--workload", "slope_domains", "--seed", "4",
                  "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "end_to_end" if trace == "0" else "per_layer"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == declared
    table = {ln.split()[0] for ln in lines[:-1] if not ln.startswith("#")}
    assert table == set(declared)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ddabench", tmp_path / "ddabench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "slope_gpu", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
