"""Per-domain submatrix extraction from a global :class:`BlockMatrix`.

Assembly stays global (bit-identical to the serial engine by
construction); this module *splits* the assembled matrix into one
:class:`DomainMatrix` per domain:

* the **SpMV operand** — the owned block rows of the global full
  symmetric block-row layout (:class:`repro.spmv.block_row
  .BlockRowLayout`), each row's blocks kept in the global per-row
  order, with every column mapped to its owned-or-ghost slot of the
  extended vector;
* a local owned x owned :class:`BlockMatrix` plus an extended
  (owned + ghost) one — the operands of the domain-decomposed
  preconditioners (block-Jacobi across domains, overlapping additive
  Schwarz).

The block-row kernel sums each output component left to right over its
row's blocks in storage order. A domain row holds the same blocks in
the same order as the global row, and after a halo exchange its ghost
slots hold the same values as the global vector, so ``domain_spmv``
reproduces :func:`repro.spmv.hsbcsr.hsbcsr_spmv` bit-for-bit on the
owned rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import bsr_matrix

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.halo import DomainMap, ExchangePlan
from repro.gpu.counters import KernelCounters
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.spmv.block_row import BlockRowLayout, block_operator, row_pointers


@dataclass(frozen=True)
class DomainMatrix:
    """One domain's operands for the distributed SpMV and solves.

    Attributes
    ----------
    domain:
        Domain index (scalar).
    n_local, n_ext:
        Owned / owned+ghost block counts (scalars).
    op:
        ``(n_local*6, n_ext*6)`` block-row kernel operand: the owned
        rows of the global layout, columns in extended-vector slots.
    local:
        Owned x owned coupling as a local-index :class:`BlockMatrix`.
    extended:
        Owned+ghost coupling (slot indices) — the overlapping-Schwarz
        operand.
    """

    domain: int
    n_local: int
    n_ext: int
    op: bsr_matrix
    local: BlockMatrix
    extended: BlockMatrix


def _submatrix(
    n: int,
    diag: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    blocks: np.ndarray,
) -> BlockMatrix:
    """Canonicalised :class:`BlockMatrix` from relabelled ``(m,)`` entries."""
    strict = rows != cols
    rows, cols, blocks = rows[strict], cols[strict], blocks[strict]
    # upper-triangle orientation: K_ji entries become K_ij^T
    swap = rows > cols
    r = np.where(swap, cols, rows)
    c = np.where(swap, rows, cols)
    b = np.where(swap[:, None, None], blocks.transpose(0, 2, 1), blocks)
    order = np.argsort(r * n + c, kind="stable")
    return BlockMatrix(
        n=n, diag=diag.copy(), rows=r[order], cols=c[order],
        blocks=b[order],
    )


def split_matrix(
    matrix: BlockMatrix, dmap: DomainMap, plan: ExchangePlan
) -> list:
    """Split a global matrix into per-domain operands (list, n_domains).

    Each domain's SpMV operand is its owned rows of the global
    block-row layout in the global per-row order, so the distributed
    SpMV is bit-identical on owned rows.
    """
    rows, cols = matrix.rows, matrix.cols
    layout = BlockRowLayout.from_pattern(matrix.n, rows, cols)
    stored = layout.gather(matrix)
    # block row of each stored block; owned ids ascend, so selecting a
    # domain's blocks in layout order keeps the global per-row order
    row_of = np.repeat(
        np.arange(matrix.n, dtype=np.int64), np.diff(layout.indptr)
    )
    row_lab_stored = dmap.labels[row_of]
    row_lab = dmap.labels[rows] if rows.size else rows
    col_lab = dmap.labels[cols] if cols.size else cols
    out = []
    for d in range(dmap.n_domains):
        own = dmap.owned[d]
        ghost = plan.ghosts[d]
        slot = plan.slots[d]
        n_local = own.size
        n_ext = n_local + ghost.size

        pos = np.flatnonzero(row_lab_stored == d)
        op = block_operator(
            stored[pos], slot[layout.indices[pos]],
            row_pointers(dmap.local[row_of[pos]], n_local), n_ext,
        )

        both = np.flatnonzero((row_lab == d) & (col_lab == d))
        local = BlockMatrix(
            n=n_local,
            diag=matrix.diag[own],
            rows=dmap.local[rows[both]],
            cols=dmap.local[cols[both]],
            blocks=matrix.blocks[both],
        )
        halo_ids = np.concatenate([own, ghost])
        ext_sel = np.flatnonzero((slot[rows] >= 0) & (slot[cols] >= 0)) \
            if rows.size else rows
        extended = _submatrix(
            n_ext,
            matrix.diag[halo_ids],
            slot[rows[ext_sel]],
            slot[cols[ext_sel]],
            matrix.blocks[ext_sel],
        )
        out.append(DomainMatrix(
            domain=d,
            n_local=n_local,
            n_ext=n_ext,
            op=op,
            local=local,
            extended=extended,
        ))
    return out


def domain_spmv(dm: DomainMatrix, x_ext: np.ndarray, device=None) -> np.ndarray:
    """Owned rows of ``A @ x``: ``(n_local*6,)`` from ``(n_ext*6,)``.

    The block-row kernel on the owned rows of the global layout: for
    refreshed ghosts the result equals the global SpMV restricted to
    owned rows, bit for bit.
    """
    y = dm.op @ x_ext
    if device is not None:
        _record_cost(dm, device)
    return y


def _record_cost(dm: DomainMatrix, device) -> None:
    """Meter the per-domain SpMV with HSBCSR-style launches."""
    n = dm.n_local
    m = dm.op.indices.shape[0] - n  # off-diagonal blocks in owned rows
    if m:
        device.launch(
            "domain_spmv_offdiag",
            KernelCounters(
                flops=2.0 * m * BS * BS,
                global_bytes_read=m * BS * BS * 8.0 + m * 8.0,
                global_bytes_written=n * BS * 8.0,
                global_txn_read=coalesced_transactions(m * BS * BS, 8)
                + coalesced_transactions(m, 8),
                global_txn_written=coalesced_transactions(n * BS, 8),
                texture_bytes=2.0 * m * BS * 8.0,
                shared_accesses=2.0 * m * BS,
                threads=m * BS,
                warps=max(1, m * BS // WARP_SIZE),
            ),
            module="equation_solving",
        )
    device.launch(
        "domain_spmv_diag",
        KernelCounters(
            flops=2.0 * n * BS * BS,
            global_bytes_read=n * BS * BS * 8.0 + n * BS * 8.0,
            global_bytes_written=n * BS * 8.0,
            global_txn_read=coalesced_transactions(n * BS * BS, 8)
            + coalesced_transactions(n * BS, 8),
            global_txn_written=coalesced_transactions(n * BS, 8),
            texture_bytes=float(n * BS * 8),
            threads=n * BS,
            warps=max(1, n * BS // WARP_SIZE),
        ),
        module="equation_solving",
    )
