"""The two DDA pipelines.

* :class:`~repro.engine.serial_engine.SerialEngine` — the paper's Fig. 1:
  the original serial pipeline, whose stages are priced as the serial
  loops (upper-triangular broad phase, per-contact state checks) on the
  E5620 CPU profile.
* :class:`~repro.engine.gpu_engine.GpuEngine` — the paper's Fig. 2: the
  restructured data-classification pipeline, fully vectorised, every
  kernel recorded on a virtual K20/K40.

Both engines run the same host code for every stage (`repro.engine.physics`,
the vectorised broad phase, the assembly plan, the open–close driver) and
differ only in the launches they price — the pipeline-equivalence
property the paper relies on when comparing runtimes.
"""

from repro.engine.physics import (
    diagonal_system,
    contact_system,
    StateUpdate,
)
from repro.engine.resilience import (
    Checkpoint,
    CheckpointCorrupt,
    CheckpointManager,
    FailureReport,
    HealthMonitor,
    HealthWarning,
    NumericalBlowup,
    SimulationError,
    SolverBreakdown,
    StepContext,
    StepRejected,
    solver_ladder,
)
from repro.engine.contracts import (
    CONTRACT_LEVELS,
    ContractViolation,
    StageContracts,
)
from repro.engine.chaos import (
    FAULT_REGISTRY,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    corrupt_checkpoint_file,
)
from repro.engine.results import SimulationResult, StepRecord
from repro.engine.serial_engine import SerialEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.drivers import run_until_static

__all__ = [
    "run_until_static",
    "HybridEngine",
    "diagonal_system",
    "contact_system",
    "StateUpdate",
    "SimulationResult",
    "StepRecord",
    "SerialEngine",
    "GpuEngine",
    "Checkpoint",
    "CheckpointCorrupt",
    "CheckpointManager",
    "FailureReport",
    "HealthMonitor",
    "HealthWarning",
    "NumericalBlowup",
    "SimulationError",
    "SolverBreakdown",
    "StepContext",
    "StepRejected",
    "solver_ladder",
    "CONTRACT_LEVELS",
    "ContractViolation",
    "StageContracts",
    "FAULT_REGISTRY",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "corrupt_checkpoint_file",
]
