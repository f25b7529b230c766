"""The Fig.-1 serial pipeline (the paper's CPU baseline).

The engine computes exactly what the GPU engine computes — the same
vectorised broad phase, the same :class:`~repro.assembly.symbolic.
AssemblyPlan` assembly, the same open–close driver — and differs only
in the launches it prices: every stage is charged as the serial
formulation (the upper-triangular broad-phase loop, the scatter-add
assembly, the branchy per-contact interpenetration check) on the
single-core E5620 profile. Those loops survive as the test references
:func:`~repro.contact.broad_phase.broad_phase_pairs_python` and
:func:`~repro.engine.physics.update_contact_states_serial`.

The four CPU-stage pricings the hybrid engine shares are defined once
here (:func:`charge_serial`).
"""

from __future__ import annotations

import numpy as np

from repro.assembly.symbolic import AssemblyPlan
from repro.contact.broad_phase import broad_phase_pairs, sort_pairs
from repro.contact.contact_set import ContactSet
from repro.contact.initialization import initialize_contacts_unclassified
from repro.contact.narrow_phase import narrow_phase
from repro.contact.transfer import transfer_contacts
from repro.engine.base import EngineBase
from repro.engine.physics import contact_system, diagonal_system
from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceProfile, E5620
from repro.gpu.kernel import VirtualDevice

#: Single-core cost per unit ``(flops, bytes read, bytes written)`` of
#: the CPU stages the serial and hybrid engines share. The unit is a
#: block, a contact, a contribution and a vertex, in that order.
SERIAL_STAGE_COSTS = {
    # mass integrals + elastic + fixed springs
    "serial_diagonal_build": (700.0, 400.0, 36.0 * 8),
    "serial_nondiagonal_build": (3 * 36 * 4 + 200.0, 500.0, 3 * 36.0 * 8),
    "serial_scatter_assembly": (36.0, 36.0 * 8, 36.0 * 8),
    "serial_data_update": (30.0, 16.0, 16.0),
}


def charge_serial(device: VirtualDevice, name: str, units: int) -> None:
    """Record CPU stage ``name`` over ``units`` (scalar) items on
    ``device``, priced from :data:`SERIAL_STAGE_COSTS`."""
    flops, read, written = SERIAL_STAGE_COSTS[name]
    device.launch(
        name,
        KernelCounters(
            flops=flops * units,
            global_bytes_read=read * units,
            global_bytes_written=written * units,
            threads=1, warps=1,
        ),
    )


class SerialEngine(EngineBase):
    """Serial CPU pipeline (paper Fig. 1)."""

    default_profile: DeviceProfile = E5620

    # ------------------------------------------------------------------
    def _detect_contacts(self) -> ContactSet:
        system = self.system
        i, j = sort_pairs(
            *broad_phase_pairs(system.aabbs, self.contact_threshold)
        )
        n = system.n_blocks
        # serial cost: n(n-1)/2 AABB tests, ~8 flops and 64 bytes each
        tests = n * (n - 1) / 2.0
        self.device.launch(
            "serial_broad_phase",
            KernelCounters(
                flops=8.0 * tests, global_bytes_read=64.0 * tests,
                threads=1, warps=1,
            ),
        )
        contacts = narrow_phase(
            system, i, j, self.contact_threshold, tol=self.tolerances
        )
        self._charge_serial_narrow(i.size, contacts.m)
        contacts = transfer_contacts(
            self._contacts, contacts, system.vertices.shape[0],
            metrics=self.metrics,
        )
        self.device.launch(
            "serial_contact_transfer",
            KernelCounters(
                flops=10.0 * (self._contacts.m + contacts.m),
                global_bytes_read=48.0 * (self._contacts.m + contacts.m),
                threads=1, warps=1,
            ),
        )
        contacts = initialize_contacts_unclassified(
            system, contacts, self.controls.penalty_scale
        )
        self.device.launch(
            "serial_contact_init",
            KernelCounters(
                flops=48.0 * contacts.m,
                global_bytes_read=112.0 * contacts.m,
                global_bytes_written=32.0 * contacts.m,
                threads=1, warps=1,
            ),
        )
        return contacts

    def _charge_serial_narrow(self, n_pairs: int, n_contacts: int) -> None:
        counts = np.diff(self.system.offsets)
        avg_v = float(counts.mean())
        rows = 2.0 * n_pairs * avg_v * avg_v
        self.device.launch(
            "serial_narrow_phase",
            KernelCounters(
                flops=54.0 * rows + 40.0 * n_contacts,
                global_bytes_read=96.0 * rows,
                global_bytes_written=64.0 * n_contacts,
                threads=1, warps=1,
            ),
        )

    # ------------------------------------------------------------------
    def _build_diagonal(self):
        out = diagonal_system(self.system, self.controls, self.dt, self.sim_time)
        charge_serial(self.device, "serial_diagonal_build", self.system.n_blocks)
        return out

    def _build_nondiagonal(self, contacts, normal_force):
        out = contact_system(self.system, contacts, normal_force)
        charge_serial(self.device, "serial_nondiagonal_build", contacts.m)
        return out

    def _plan_assembly(self, diag_idx, off_rows, off_cols):
        plan = AssemblyPlan.build(
            self.system.n_blocks, diag_idx, off_rows, off_cols
        )
        charge_serial(
            self.device, "serial_scatter_assembly",
            diag_idx.size + off_rows.size,
        )
        return plan

    def _check_interpenetration(self, contacts, d, prev_normal_force):
        # the vectorised driver sweep (its per-contact scalar twin,
        # update_contact_states_serial, survives as the independent
        # reference the equivalence tests pin against); the modelled
        # cost stays the single-core per-contact loop below
        update = self._oc_sweep(contacts, d, prev_normal_force)
        self.device.launch(
            "serial_interpenetration_check",
            KernelCounters(
                flops=180.0 * contacts.m,
                global_bytes_read=300.0 * contacts.m,
                global_bytes_written=24.0 * contacts.m,
                threads=1, warps=1,
            ),
        )
        return update

    def _update_data(self, d):
        self._apply_geometry_update(d)
        charge_serial(
            self.device, "serial_data_update", self.system.vertices.shape[0]
        )
