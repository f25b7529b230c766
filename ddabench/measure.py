"""Measurement: set-ups, episodes, output checks and end-to-end metrics.

An *episode* is one fresh engine on its own generated model, run for
the workload's fixed step count by calling ``engine.run(steps=1)`` in a
loop so each accepted step is timed from outside (bit-identical to one
``run(steps=N)``; the benchmark's tests pin this). A run measures a
fixed number of episodes (see :meth:`Workload.plan`), after a tiny
untimed warm-up and :data:`SETUP_REPS` or more timed set-ups.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ddabench.layers import TARGETS, layer_metrics, ledger_detail
from ddabench.spans import SpanRecorder, installed, write_perfetto
from ddabench.workloads import (
    DEFAULT_SEED,
    REFERENCE_RTOL,
    Workload,
    load_reference,
    model_diagonal,
    modelled_seconds,
)
from repro.engine.resilience import SimulationError
from repro.obs.tracer import Tracer

#: Set-ups timed per run (at least; one per episode when there are more).
SETUP_REPS = 5

#: ``name -> unit`` of the end-to-end metrics, in print order.
END_TO_END = {
    "setup_s": "s",
    "first_step_s": "s",
    "step_s_p50": "s",
    "step_s_tail": "s",
    "steps_per_s": "1/s",
    "wall_modelled_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Seconds one :class:`HostSpeed` probe takes on a calm host (the 2-vCPU
#: Xeon VM the benchmark was tuned on). Normalised times are in seconds
#: at that speed.
PROBE_REF_S = 0.0069

#: Steps of the tiny warm-up episode run before anything is timed.
WARMUP_STEPS = 3

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


class HostSpeed:
    """Tracks how fast the shared host runs right now.

    On a shared 2-vCPU VM the same step's wall varies by 20-40% within
    minutes as neighbours load the host, and process CPU time varies
    with it (the slowdown is contention, not descheduling). A probe — a
    fixed mix of interpreter work and small-array numpy calls, the
    engines' own instruction mix — is timed before every timed interval
    and after the last one. Each interval's wall is scaled by
    ``PROBE_REF_S / mean(probe before, probe after)``: its
    *normalised* wall, the seconds it would take on a calm host. The
    probe's code never changes with the program, so a program change
    moves normalised and raw wall alike.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 6, 6))
        self._x = rng.random((256, 6))
        self._idx = rng.integers(0, 256 * 6, 512)
        self.last = self.probe()

    def probe(self) -> float:
        """Time one probe (about :data:`PROBE_REF_S` on a calm host)."""
        a, x, idx = self._a, self._x, self._idx
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(200):
            y = np.einsum("kij,kj->ki", a, x)
            z = np.zeros(idx.size * 3)
            np.add.at(z, idx, 1.0)
            order = np.argsort(y[:, 0], kind="stable")
            d = {j: (j, j * 2.0) for j in range(64)}
            acc += sum(v[1] for v in d.values()) + float(z[order].sum())
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Normalisation factor of the interval since the last call."""
        before, self.last = self.last, self.probe()
        return 2.0 * PROBE_REF_S / (before + self.last)


@dataclass
class Episode:
    """What one episode produced."""

    walls: list = field(default_factory=list)
    #: per-step normalisation factors (see :class:`HostSpeed`)
    factors: list = field(default_factory=list)
    records: list = field(default_factory=list)
    module_wall: dict = field(default_factory=dict)
    modelled_s: float = 0.0
    vertices: np.ndarray | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    detail: dict | None = None


@dataclass
class Setup:
    engine: object
    build_s: float
    setup_s: float
    tolerance: float
    factor: float = 1.0


def set_up(workload: Workload, seed: int, episode: int, size: str,
           tracer=None, host: HostSpeed | None = None) -> Setup:
    """Generate the episode's model and construct its engine, timed."""
    if host is not None:
        host.factor()
    t0 = time.perf_counter()
    system = workload.build(seed, episode, size)
    t1 = time.perf_counter()
    engine = workload.make_engine(system, size, tracer=tracer)
    t2 = time.perf_counter()
    return Setup(engine, t1 - t0, t2 - t0,
                 REFERENCE_RTOL * model_diagonal(system),
                 host.factor() if host is not None else 1.0)


def _step_problem(res, engine, bound: float) -> str | None:
    if res.rollbacks:
        return f"rolled back {res.rollbacks} time(s)"
    if res.is_partial or res.n_steps != 1:
        return "partial result"
    if not np.isfinite(engine.system.vertices).all():
        return "non-finite vertices"
    pen = res.steps[0].max_penetration
    if not pen <= bound:
        return f"max_penetration {pen:.3e} exceeds bound {bound:.3e}"
    return None


def run_episode(engine, steps: int, recorder: SpanRecorder | None = None,
                detail: bool = False, host: HostSpeed | None = None) -> Episode:
    """Run ``steps`` accepted steps one ``run(steps=1)`` call at a time.

    With ``host``, every step is bracketed by host-speed probes.
    """
    bound = (engine.controls.resilience.penetration_factor
             * engine.contact_threshold)
    ep = Episode()
    m0 = modelled_seconds(engine)
    clock = time.perf_counter
    if host is not None:
        host.factor()
    for k in range(steps):
        ep.attempted += 1
        t0 = clock()
        try:
            if recorder is None:
                res = engine.run(steps=1)
            else:
                with recorder.span("engine.step"):
                    res = engine.run(steps=1)
        except SimulationError as err:
            # this step failed and every later step of the episode is lost
            ep.attempted += steps - k - 1
            ep.failed += steps - k
            ep.problems.append(f"step {k}: {type(err).__name__}: {err}")
            break
        ep.walls.append(clock() - t0)
        ep.factors.append(host.factor() if host is not None else 1.0)
        problem = _step_problem(res, engine, bound)
        if problem is not None:
            ep.failed += 1
            ep.problems.append(f"step {k}: {problem}")
        ep.records.extend(res.steps)
        for module, seconds in res.module_times.times.items():
            ep.module_wall[module] = ep.module_wall.get(module, 0.0) + seconds
    ep.modelled_s = modelled_seconds(engine) - m0
    ep.vertices = engine.system.vertices.copy()
    if detail:
        ep.detail = ledger_detail(engine)
    return ep


def check_final_state(episodes, reference: list, tolerance: float) -> None:
    """Each episode's final vertices against its stored reference.

    A mismatch fails the episode's last step. Episodes beyond the stored
    ones (a run longer than ``--seconds 24``) are not checked.
    """
    for i, (ep, target) in enumerate(zip(episodes, reference)):
        if ep.failed:
            continue
        if ep.vertices.shape != target.shape:
            err = float("inf")
        else:
            err = float(np.max(np.abs(ep.vertices - target)))
        if not err <= tolerance:
            ep.failed += 1
            ep.problems.append(
                f"episode {i}: final vertices off the reference by "
                f"{err:.3e} (tolerance {tolerance:.3e})"
            )


def tail(samples: list) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it (the maximum if there are too
    few samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def median_hd(samples: list) -> float:
    """Harrell-Davis estimate of the median.

    A Beta-weighted average of all order statistics. The slope's
    adaptive time step is a sawtooth — about every other step needs one
    loop-2 retry — so its per-step walls form two modes of similar
    weight, and the plain sample median jumps between them as a seed
    shifts the mix by a step or two. This estimate moves smoothly with
    the mix and equals the sample median on symmetric data.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    a = b = (n + 1) / 2.0
    edges = special.betainc(a, b, np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """A run's episodes, set-up timings and derived metrics."""

    episodes: list
    build_s: list
    setup_s: list
    setup_factors: list
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(ep.attempted for ep in self.episodes)

    @property
    def failed(self) -> int:
        return sum(ep.failed for ep in self.episodes)


def warm_up(workload: Workload, seed: int) -> None:
    """Pay the process's one-time costs (lazy imports, first-call
    allocations) on a tiny model so no timed step carries them."""
    run_episode(set_up(workload, seed, 0, "tiny").engine, WARMUP_STEPS)


def measure(workload: Workload, seed: int, seconds: float, size: str,
            detail: bool = False) -> RunResult:
    """The untraced run: set-ups, episodes, output checks, e2e metrics."""
    warm_up(workload, seed)
    host = HostSpeed()
    n_episodes = workload.plan(seconds)
    setups = [set_up(workload, seed, i, size, host=host)
              for i in range(max(SETUP_REPS, n_episodes))]
    tolerance = setups[0].tolerance
    run = RunResult(
        episodes=[], build_s=[s.build_s for s in setups],
        setup_s=[s.setup_s for s in setups],
        setup_factors=[s.factor for s in setups],
    )
    engines = [s.engine for s in setups[:n_episodes]]
    del setups
    steps = workload.steps[size]
    while engines:
        run.episodes.append(run_episode(
            engines.pop(0), steps, detail=detail, host=host))
    if seed == DEFAULT_SEED and size == "full":
        reference = load_reference(workload.name)
        if reference is None:
            run.problems.append("no stored reference for the default seed")
        else:
            check_final_state(run.episodes, reference, tolerance)
    run.metrics, notes = end_to_end(run)
    run.notes.update(notes)
    return run


def _normalised_wall(episodes) -> float:
    return sum(w * f for ep in episodes for w, f in zip(ep.walls, ep.factors))


def _timings(run: RunResult, normalised: bool) -> tuple[dict, float, int]:
    """The six timing metrics from raw or normalised walls, plus the
    tail's percentile and sample count."""
    def walls(ep):
        if not normalised:
            return ep.walls
        return [w * f for w, f in zip(ep.walls, ep.factors)]

    full = [walls(ep) for ep in run.episodes]
    every = [w for ws in full for w in ws]
    rest = [w for ws in full for w in ws[1:]] or every
    firsts = [ws[0] for ws in full if ws]
    setups = run.setup_s
    if normalised:
        setups = [s * f for s, f in zip(setups, run.setup_factors)]
    modelled = sum(ep.modelled_s for ep in run.episodes)
    tail_s, pct, n = tail(rest)
    values = {
        "setup_s": statistics.median(setups),
        "first_step_s": statistics.median(firsts),
        "step_s_p50": median_hd(rest),
        "step_s_tail": tail_s,
        "steps_per_s": len(every) / sum(every),
        "wall_modelled_ratio": sum(every) / modelled,
    }
    return values, pct, n


def end_to_end(run: RunResult) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, plus printed notes.

    Every timing is host-normalised (see :class:`HostSpeed`); the raw
    value is printed beside it.
    """
    values, pct, n = _timings(run, normalised=True)
    raw, _, _ = _timings(run, normalised=False)
    values["peak_rss_mb"] = peak_rss_mb()
    steps = sum(len(ep.walls) for ep in run.episodes)
    modelled = sum(ep.modelled_s for ep in run.episodes)
    samples = {
        "setup_s": f"median of {len(run.setup_s)} set-ups",
        "first_step_s": f"median of {len(run.episodes)} episodes",
        "step_s_p50": f"n={n} steps after the first",
        "step_s_tail": f"p{pct:.1f} of n={n} steps after the first",
        "steps_per_s": f"{steps} steps in {len(run.episodes)} episode(s)",
        "wall_modelled_ratio": f"modelled {modelled:.6f} s",
    }
    notes = {name: f"raw {raw[name]:.6g}; {samples[name]}" for name in raw}
    notes["peak_rss_mb"] = "ru_maxrss"
    notes["raw"] = raw
    notes["step_walls"] = [[w * f for w, f in zip(ep.walls, ep.factors)]
                           for ep in run.episodes]
    notes["first_step_work"] = [
        {"retries": r.retries, "cg_iterations": r.cg_iterations,
         "open_close_iterations": r.open_close_iterations}
        for r in (ep.records[0] for ep in run.episodes if ep.records)
    ]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, notes


def measure_traced(workload: Workload, seed: int, seconds: float,
                   size: str, trace_path=None) -> RunResult:
    """The traced run: the untraced run, then the same episodes traced.

    The traced episodes carry the wrappers of :data:`TARGETS` and an
    engine :class:`Tracer`. Their final vertices and modelled seconds
    must equal the untraced episodes' bit for bit, and the tracer's
    modelled per-module sums must equal the ledgers' ``time_by_module``;
    any mismatch fails the run's output check.
    """
    run = measure(workload, seed, seconds, size, detail=True)
    recorder = SpanRecorder()
    tracer = Tracer(meta={"workload": workload.name, "seed": seed})
    tracer_epoch = time.perf_counter() - tracer.now()
    steps = workload.steps[size]
    traced: list[Episode] = []
    ledger_by_module: dict[str, float] = {}
    host = HostSpeed()
    with installed(recorder, TARGETS):
        for i in range(len(run.episodes)):
            setup = set_up(workload, seed, i, size, tracer=tracer)
            traced.append(
                run_episode(setup.engine, steps, recorder, host=host))
            for module, s in setup.engine.device.time_by_module().items():
                ledger_by_module[module] = ledger_by_module.get(module, 0.0) + s
            del setup
    for ep in traced:
        run.problems.extend(f"traced {p}" for p in ep.problems)
    for i, (a, b) in enumerate(zip(run.episodes, traced)):
        if not (np.array_equal(a.vertices, b.vertices)
                and a.modelled_s == b.modelled_s):
            run.problems.append(
                f"episode {i}: traced run differs from the untraced run")
    for module, summary in tracer.module_summary().items():
        ledger = ledger_by_module.get(module, 0.0)
        if abs(summary["device_s"] - ledger) > 1e-9 * max(ledger, 1e-300):
            run.problems.append(
                f"{module}: traced modelled {summary['device_s']!r} s != "
                f"ledger {ledger!r} s")
    untraced_wall = _normalised_wall(run.episodes)
    overhead = (_normalised_wall(traced) - untraced_wall) / untraced_wall
    partitions = len(traced) if recorder.calls("domain.partition") else 0
    run.metrics = layer_metrics(
        run.episodes, recorder,
        build_s=statistics.median(run.build_s),
        partitions=partitions, overhead_frac=overhead,
    )
    if trace_path is not None:
        run.notes["trace_file"] = str(
            write_perfetto(trace_path, recorder, tracer, tracer_epoch))
    run.notes["spans"] = f"{sum(s[0] for s in recorder.stats.values())} spans"
    return run
