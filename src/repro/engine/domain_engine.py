"""Domain-decomposed engine: the executable multi-device path.

:class:`DomainEngine` runs the serial pipeline's physics stage for
stage — detection (the vectorised broad phase in row-major pair order),
assembly (the cached :class:`~repro.assembly.symbolic.AssemblyPlan`),
interpenetration checking and updating are exactly
:class:`~repro.engine.serial_engine.SerialEngine`'s, priced the same
way — but the equation solve is distributed across ``n_domains``
per-domain :class:`~repro.gpu.kernel.VirtualDevice` ledgers:

1. at construction the blocks are partitioned once via
   :func:`repro.domain.partition.partition_blocks` (graph partition
   over the contact topology, spatial-stripe fallback);
2. per assembled matrix, :func:`repro.domain.assembly.split_matrix`
   extracts the per-domain operands and
   :func:`repro.domain.halo.build_exchange_plan` the ghost lists;
3. the solve is :func:`repro.domain.solve.distributed_pcg` — one halo
   exchange per iteration, ordered (deterministic) all-reduced dot
   products — plugged into the fallback ladder through the
   :meth:`~repro.engine.base.EngineBase._make_rung_preconditioner` /
   :meth:`~repro.engine.base.EngineBase._pcg` hooks.

Because every substituted reduction is performed in canonical block
order, results are **bit-identical** to the serial engine at every
domain count (the ``tests/domain`` pin enforces this), while the
ledger records what the decomposition would cost for real: halo bytes
(``domain.halo_bytes``), cut contacts (``domain.cut_contacts``), and
imbalance (``domain.imbalance``).

Stage contracts, chaos faults (including ``halo_corrupt``, which
corrupts the gathered solution transfer), spans/metrics, and the
scatter sanitizer all apply unchanged through :class:`EngineBase`.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.global_matrix import BlockMatrix
from repro.contact.contact_set import ContactSet
from repro.core.blocks import BlockSystem
from repro.core.state import SimulationControls
from repro.domain.assembly import split_matrix
from repro.domain.halo import (
    DomainMap,
    HaloExchanger,
    build_exchange_plan,
    ghost_contacts,
    make_domain_devices,
)
from repro.domain.partition import partition_blocks
from repro.domain.solve import distributed_pcg, make_domain_preconditioner
from repro.engine.serial_engine import SerialEngine
from repro.gpu.device import DeviceProfile
from repro.solvers.cg import CGResult


class DomainEngine(SerialEngine):
    """Serial pipeline with a domain-decomposed distributed solve."""

    def __init__(
        self,
        system: BlockSystem,
        controls: SimulationControls | None = None,
        profile: DeviceProfile | None = None,
        n_domains: int = 2,
        partition_method: str = "auto",
        fault_injector=None,
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(
            system, controls, profile, fault_injector,
            tracer=tracer, metrics=metrics,
        )
        self.n_domains = int(n_domains)
        self.labels, self.partition_stats = partition_blocks(
            system, self.n_domains,
            margin=self.contact_threshold, method=partition_method,
        )
        self.dmap = DomainMap.from_labels(self.labels, self.n_domains)
        self.domain_devices = make_domain_devices(
            self.n_domains, self.device.profile
        )
        self.metrics.counter("domain.halo_bytes")
        self.metrics.gauge("domain.imbalance").set(
            self.partition_stats.imbalance
        )
        self.metrics.gauge("domain.cut_fraction").set(
            self.partition_stats.cut_fraction
        )
        self._split_for: BlockMatrix | None = None
        self._split_cache = None

    # ------------------------------------------------------------------
    # partition-aware stage overrides
    # ------------------------------------------------------------------
    def _detect_contacts(self) -> ContactSet:
        contacts = super()._detect_contacts()
        _, n_cut = ghost_contacts(
            self.dmap, contacts.block_i, contacts.block_j
        )
        self.metrics.gauge("domain.cut_contacts").set(float(n_cut))
        return contacts

    # ------------------------------------------------------------------
    # distributed solve (fallback-ladder hooks)
    # ------------------------------------------------------------------
    def _halo_inject(self, buffer: np.ndarray) -> np.ndarray:
        """Chaos hook over the gathered solution transfer buffer."""
        return self._inject("halo_exchange", buffer, self._current_step)

    def _ensure_split(self, matrix: BlockMatrix):
        """Per-domain operands for ``matrix``, cached per matrix object."""
        if matrix is not self._split_for:
            plan = build_exchange_plan(self.dmap, matrix.rows, matrix.cols)
            exchanger = HaloExchanger(
                self.dmap, plan, self.domain_devices,
                metrics=self.metrics, inject=self._halo_inject,
            )
            domains = split_matrix(matrix, self.dmap, plan)
            self._split_for = matrix
            self._split_cache = (domains, exchanger)
        return self._split_cache

    def _solver_operand(self, matrix: BlockMatrix) -> BlockMatrix:
        """Distributed solves consume the :class:`BlockMatrix` itself.

        The split into per-domain operands happens in
        :meth:`_ensure_split` (keyed on the matrix object), so the base
        class's HSBCSR conversion is skipped entirely.
        """
        return matrix

    def _make_rung_preconditioner(self, name: str, matrix: BlockMatrix):
        domains, exchanger = self._ensure_split(matrix)
        return make_domain_preconditioner(name, matrix, domains, exchanger)

    def _pcg(
        self,
        matrix: BlockMatrix,
        rhs: np.ndarray,
        x0: np.ndarray | None,
        preconditioner,
    ) -> CGResult:
        domains, exchanger = self._ensure_split(matrix)
        controls = self.controls
        return distributed_pcg(
            domains,
            exchanger,
            rhs,
            x0=x0,
            preconditioner=preconditioner,
            tol=controls.cg_tolerance,
            max_iterations=controls.cg_max_iterations,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    @property
    def halo_bytes(self) -> float:
        """Total halo-exchange bytes metered so far (scalar)."""
        return float(self.metrics.counter("domain.halo_bytes").value)

    def domain_device_times(self) -> list:
        """Per-domain modelled device seconds (length ``n_domains``)."""
        return [dev.total_time for dev in self.domain_devices]
