"""Shared DDA step physics: system contributions and the open–close rule.

Both engines call these functions; the engines differ in *how* the work is
scheduled (serial loops vs classified vectorised kernels), not in what is
computed.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.contact_springs import (
    LOCK,
    OPEN,
    SLIDE,
    contact_contributions,
    normal_spring_vectors,
    shear_spring_vectors,
)
from repro.contact.open_close import StateUpdate
from repro.assembly.submatrices import (
    fixed_point_contribution,
    point_load_vector,
)
from repro.contact.contact_set import ContactSet
from repro.core.blocks import DOF, BlockSystem
from repro.core.state import SimulationControls


def diagonal_system(
    system: BlockSystem,
    controls: SimulationControls,
    dt: float,
    sim_time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal stiffness contributions and the global load vector.

    Returns ``(diag_idx, diag_blocks, f)`` where the contribution stream
    carries elastic, inertia and fixed-point terms, and ``f`` collects
    inertia momentum, gravity, seismic base shaking (evaluated at
    ``sim_time``), and point loads.
    """
    n = system.n_blocks
    base_ax, base_ay = 0.0, 0.0
    if controls.base_acceleration is not None:
        base_ax, base_ay = controls.base_acceleration(sim_time)
    v0 = system.velocities if controls.dynamic else np.zeros((n, DOF))
    densities = np.array(
        [system.materials[m].density for m in system.material_id]
    )
    areas = system.areas

    # --- vectorised bulk terms (every block) -------------------------
    from repro.assembly.submatrices import mass_integral_matrices

    m_rho = densities[:, None, None] * mass_integral_matrices(
        areas, system.moments
    )
    blocks = (2.0 / dt**2) * m_rho
    # elastic stiffness grouped by material (few distinct materials)
    for mid, mat in enumerate(system.materials):
        sel = system.material_id == mid
        if sel.any():
            blocks[sel, 3:6, 3:6] += (
                areas[sel, None, None] * mat.elastic_matrix()
            )
    fb = np.zeros((n, DOF))
    fb += (2.0 / dt) * np.einsum("nij,nj->ni", m_rho, v0)
    fb[:, 0] += -base_ax * densities * areas
    fb[:, 1] += -(controls.gravity + base_ay) * densities * areas
    # stress memory: accumulated stress enters as the initial-stress load
    fb[:, 3:6] -= areas[:, None] * system.stresses

    # --- sparse boundary-condition terms (few points) ----------------
    mean_young = float(np.mean([m.young for m in system.materials]))
    fixed_penalty = controls.fixed_point_penalty_scale * mean_young
    from repro.core.displacement import displacement_matrix

    for (b, x, y), (ax_, ay_) in zip(
        system.fixed_points, system.fixed_anchors
    ):
        blocks[b] += fixed_point_contribution(
            np.array([x, y]), system.centroids[b], fixed_penalty
        )
        # restoring load toward the original anchor (no per-step ratchet)
        t = displacement_matrix(
            np.array([[x, y]]), system.centroids[b][None, :]
        )[0]
        fb[b] += fixed_penalty * (t.T @ np.array([ax_ - x, ay_ - y]))
    for b, x, y, fx, fy in system.load_points:
        fb[b] += point_load_vector(
            np.array([x, y]), system.centroids[b], fx, fy
        )
    return (
        np.arange(n, dtype=np.int64),
        blocks,
        fb.reshape(-1),
    )


def contact_system(
    system: BlockSystem,
    contacts: ContactSet,
    normal_force: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contact contributions in assembly-stream form.

    Parameters
    ----------
    normal_force:
        Per-contact compressive normal force from the previous open–close
        iteration (drives the friction magnitude of SLIDE contacts).

    Returns
    -------
    (diag_idx, diag_blocks, off_rows, off_cols, off_blocks, f)
        ``f`` is the global load contribution of the contact springs.
    """
    m = contacts.m
    n = system.n_blocks
    f = np.zeros(n * DOF)
    if m == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, np.zeros((0, DOF, DOF)), z.copy(), z.copy(), np.zeros((0, DOF, DOF)), f
    p1, e1, e2, ci, cj = contacts.geometry(system)
    jm = system.joint_material
    _, _, _, length = normal_spring_vectors(p1, e1, e2, ci, cj)
    friction = normal_force * jm.tan_phi + jm.cohesion * length
    kii, kjj, kij, fi, fj = contact_contributions(
        p1, e1, e2, contacts.ratio, ci, cj,
        contacts.state, contacts.pn, contacts.ps,
        friction, contacts.shear_sign,
    )
    diag_idx = np.concatenate([contacts.block_i, contacts.block_j])
    diag_blocks = np.concatenate([kii, kjj])
    np.add.at(f.reshape(n, DOF), contacts.block_i, fi)
    np.add.at(f.reshape(n, DOF), contacts.block_j, fj)
    return (
        diag_idx,
        diag_blocks,
        contacts.block_i.copy(),
        contacts.block_j.copy(),
        kij,
        f,
    )


def update_contact_states_serial(
    system: BlockSystem,
    contacts: ContactSet,
    d: np.ndarray,
    *,
    tension_tolerance: float = 0.0,
    prev_normal_force: np.ndarray | None = None,
    force_tolerance: float = 0.0,
) -> StateUpdate:
    """The open–close rule as a per-contact Python loop.

    Evaluates each contact's post-solve normal penetration ``d_n`` and
    tangential displacement ``d_s``:

    * ``d_n`` above the tension tolerance -> OPEN;
    * otherwise closed; Mohr–Coulomb: ``|p_s d_s| > N tan(phi) + c L``
      -> SLIDE (with the shear direction's sign), else LOCK.

    The branchy CPU code of the paper's Section III.D example, kept as
    the independent scalar reference the vectorised
    :class:`~repro.contact.open_close.OpenCloseDriver` (every engine's
    interpenetration check) is pinned against.
    """
    m = contacts.m
    states = np.empty(m, dtype=np.int64)
    signs = contacts.shear_sign.copy()
    nforce = np.zeros(m)
    prev_nf = np.zeros(m) if prev_normal_force is None else prev_normal_force
    changed = 0
    significant = 0
    max_pen = 0.0
    jm = system.joint_material
    db = d.reshape(system.n_blocks, DOF)
    verts = system.vertices
    cents = system.centroids
    for k in range(m):
        one = slice(k, k + 1)
        p1 = verts[contacts.vertex_idx[one]]
        e1 = verts[contacts.e1_idx[one]]
        e2 = verts[contacts.e2_idx[one]]
        ci = cents[contacts.block_i[one]]
        cj = cents[contacts.block_j[one]]
        e, g, d0, length = normal_spring_vectors(p1, e1, e2, ci, cj)
        es, gs, _ = shear_spring_vectors(
            p1, e1, e2, contacts.ratio[one], ci, cj
        )
        di = db[contacts.block_i[k]]
        dj = db[contacts.block_j[k]]
        dn = float(d0[0] + e[0] @ di + g[0] @ dj)
        ds = float(es[0] @ di + gs[0] @ dj)
        cap = 0.0
        if contacts.state[k] != OPEN:
            cap = (
                jm.tensile_strength * float(length[0])
                / max(contacts.pn[k], 1e-300)
            )
        if dn > tension_tolerance + cap:
            new = OPEN
        else:
            n_f = max(0.0, -contacts.pn[k] * dn)
            nforce[k] = n_f
            limit = n_f * jm.tan_phi + jm.cohesion * float(length[0])
            if abs(contacts.ps[k] * ds) > limit:
                ds_sign = 1.0 if ds >= 0 else -1.0
                if (
                    contacts.state[k] == SLIDE
                    and ds_sign != contacts.shear_sign[k]
                ):
                    new = LOCK  # anti-chatter: direction reversal sticks
                else:
                    new = SLIDE
                    signs[k] = ds_sign
            else:
                new = LOCK
        if dn < 0 and -dn > max_pen:
            max_pen = -dn
        states[k] = new
        if new != contacts.state[k]:
            changed += 1
            if max(prev_nf[k], nforce[k]) > force_tolerance:
                significant += 1
    return StateUpdate(
        states=states,
        shear_sign=signs,
        normal_force=nforce,
        changed=changed,
        significant_changes=significant,
        max_penetration=max_pen,
    )
