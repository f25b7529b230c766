"""Workload definitions: seeded scene generation and engine construction.

Each workload turns ``(seed, episode, size)`` into a :class:`BlockSystem`
plus :class:`SimulationControls` and builds the engine that runs it; the
program under test receives nothing else. Every episode of a run gets
its own model, drawn from ``(seed, episode)``: the pipeline's time
stepping is chaotic (a perturbation of 1e-12 of the joint spacing
already changes which later steps need loop-2 retries and how many CG
iterations they take), so one run averages over several trajectories
instead of repeating one. ``size="full"`` is the benchmark;
``size="tiny"`` is a seconds-long variant of the same pipeline for the
benchmark's own tests.

The final vertices of every episode at the default seed and full size
are stored under ``reference/`` and every run at that seed is checked
against them within :data:`REFERENCE_RTOL` of the model diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from benchmarks.common import case1_controls, case2_controls, scaled_case2_system
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.meshing.block_cutter import cut_blocks
from repro.meshing.joints import JointSet, generate_joint_set
from repro.util.rng import make_rng

#: Seed the stored references were produced with (every workload).
DEFAULT_SEED = 7

#: Allowed max-abs deviation of the final vertices from the reference,
#: as a share of the model's bounding-box diagonal. Loose enough for
#: order-changing kernels (ulp-level drift), tight enough to catch a
#: changed contact decision.
REFERENCE_RTOL = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_N_DOMAINS = {"full": 4, "tiny": 2}

#: Seeded shift of each slope joint trace along its normal, as a share
#: of the joint spacing. Small enough that the first step keeps its five
#: loop-2 retries, large enough that every (seed, episode) follows its
#: own trajectory.
_JOINT_JITTER = 1e-6

#: Seeded jitter of each loose rock, as a share of the inter-rock gap
#: (``build_falling_rocks_model``'s default 0.05 m): small enough that
#: no two rocks, and no rock and the slope face, ever touch at t = 0.
_ROCK_JITTER = 0.25
_ROCK_GAP = 0.05


def slope_system(seed: int, episode: int, spacing: float) -> BlockSystem:
    """Case-1 slope whose joint traces are shifted by seeded jitter.

    Follows ``build_slope_model`` (80 x 40 m, 55 degree face, two joint
    sets, base band fixed) step for step through the public meshing
    API, drawing the joint sets with :data:`DEFAULT_SEED`; the
    benchmark's ``(seed, episode)`` then moves every trace along its
    normal by at most ``_JOINT_JITTER * spacing``. A whole new joint
    draw changes how many loop-2 retries the first step needs (5 or 6),
    and with them its cost by a fifth; the jitter keeps the rock mass
    and the first step's retries, while its sweeps and CG iterations
    and the chaotic later steps still differ per episode. With zero
    jitter the model is ``build_slope_model``'s exactly.
    """
    width, height, angle, toe = 80.0, 40.0, 55.0, 4.0
    run = (height - toe) / math.tan(math.radians(angle))
    domain = np.array([[0.0, 0.0], [width, 0.0], [width, toe],
                       [width - run, height], [0.0, height]])
    bounds = np.array([0.0, 0.0, width, height])
    rng = make_rng(DEFAULT_SEED)
    joints = np.concatenate([
        generate_joint_set(JointSet(dip_deg=angle - 90.0, spacing=spacing,
                                    spacing_cov=0.12), bounds, rng),
        generate_joint_set(JointSet(dip_deg=angle - 170.0,
                                    spacing=spacing * 1.2,
                                    spacing_cov=0.12), bounds, rng),
    ])
    direction = joints[:, 2:] - joints[:, :2]
    normal = np.stack([-direction[:, 1], direction[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    shift = np.random.default_rng((seed, episode)).uniform(
        -_JOINT_JITTER, _JOINT_JITTER, size=(len(joints), 1)) * spacing
    joints = joints + np.tile(shift * normal, 2)
    polys = cut_blocks(domain, joints, min_area=spacing**2 * 1e-4)
    material = BlockMaterial()
    system = BlockSystem([Block(p, material) for p in polys])
    fixed = np.flatnonzero(system.centroids[:, 1] < spacing * 0.9)
    if fixed.size == 0:
        fixed = [int(np.argmin(system.centroids[:, 1]))]
    for i in fixed:
        system.fix_block(int(i))
    return system


def rocks_system(seed: int, episode: int, rows: int, cols: int) -> BlockSystem:
    """Case-2 falling rocks with every loose rock shifted by seeded jitter.

    ``build_falling_rocks_model`` has no seed, so the benchmark moves
    each loose rock (blocks 2..) by a uniform offset of at most
    ``_ROCK_JITTER * gap`` per axis, drawn from ``(seed, episode)``, and
    rebuilds the system with the same two fixed blocks (slope wedge and
    run-out slab).
    """
    base = scaled_case2_system(rows, cols)
    rng = np.random.default_rng((seed, episode))
    blocks = base.to_blocks()
    reach = _ROCK_JITTER * _ROCK_GAP
    shifts = rng.uniform(-reach, reach, size=(len(blocks) - 2, 2))
    jittered = blocks[:2] + [
        Block(b.vertices + shift, b.material)
        for b, shift in zip(blocks[2:], shifts)
    ]
    system = BlockSystem(jittered, base.joint_material)
    system.fix_block(0)
    system.fix_block(1)
    return system


#: ``--seconds`` the episode counts below are sized for.
PLAN_SECONDS = 24.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A run measures ``episodes`` episodes of ``steps[size]`` steps, each
    on its own model. The count is fixed for ``--seconds`` =
    :data:`PLAN_SECONDS` and scales with it, so a parent and a change
    measure the same work whatever their speed. The counts keep a run
    near 25 s on a calm 2-vCPU host, so the 70 runs of a full benchmark
    pass fit in under an hour even when the host is slow.
    """

    name: str
    make_model: Callable[..., BlockSystem]
    #: size -> keyword arguments of ``make_model`` besides seed and episode
    scene: dict
    #: size -> accepted steps per episode
    steps: dict
    controls: Callable[[], SimulationControls]
    engine_cls: type
    episodes: int

    def build(self, seed: int, episode: int, size: str) -> BlockSystem:
        """The model of ``episode`` of a run with ``seed`` at ``size``."""
        return self.make_model(seed, episode, **self.scene[size])

    def make_engine(self, system: BlockSystem, size: str, tracer=None):
        """Construct the engine (the domain partition happens here)."""
        if self.engine_cls is DomainEngine:
            return DomainEngine(
                system, self.controls(), n_domains=_N_DOMAINS[size],
                tracer=tracer,
            )
        return self.engine_cls(system, self.controls(), tracer=tracer)

    def plan(self, seconds: float) -> int:
        """Episodes a run of ``seconds`` measures (at least one)."""
        return max(1, round(self.episodes * seconds / PLAN_SECONDS))


#: The workloads; why each was chosen is in ``BENCHMARK.json`` and
#: ``README.md``.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="slope_gpu",
            make_model=slope_system,
            scene={"full": {"spacing": 2.0}, "tiny": {"spacing": 9.0}},
            steps={"full": 12, "tiny": 12},
            controls=case1_controls,
            engine_cls=GpuEngine,
            episodes=3,
        ),
        Workload(
            name="rocks_gpu",
            make_model=rocks_system,
            scene={"full": {"rows": 16, "cols": 32},
                   "tiny": {"rows": 3, "cols": 4}},
            steps={"full": 30, "tiny": 12},
            controls=case2_controls,
            engine_cls=GpuEngine,
            episodes=4,
        ),
        # ~300 blocks, not slope_gpu's ~635: the serial host path makes a
        # 635-block first step take ~7 s, and a run then held too few
        # trajectories and steps for medians steady across seeds
        Workload(
            name="slope_domains",
            make_model=slope_system,
            scene={"full": {"spacing": 3.0}, "tiny": {"spacing": 9.0}},
            steps={"full": 15, "tiny": 12},
            controls=case1_controls,
            engine_cls=DomainEngine,
            episodes=3,
        ),
    )
}


def modelled_seconds(engine) -> float:
    """The engine's modelled clock: main ledger plus the slowest domain."""
    domains = getattr(engine, "domain_devices", ())
    return engine.device.total_time + max(
        (d.total_time for d in domains), default=0.0
    )


def model_diagonal(system: BlockSystem) -> float:
    """Bounding-box diagonal of the model's vertices."""
    v = system.vertices
    return float(np.hypot(*(v.max(axis=0) - v.min(axis=0))))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def load_reference(workload: str) -> list | None:
    """Final vertices of each default-seed episode, or ``None`` if absent."""
    path = reference_path(workload)
    if not path.exists():
        return None
    with np.load(path) as data:
        return [data[f"episode{i}"] for i in range(len(data.files))]


def write_reference(workload: str, vertices: list) -> Path:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = reference_path(workload)
    np.savez_compressed(
        path, **{f"episode{i}": v for i, v in enumerate(vertices)})
    return path
