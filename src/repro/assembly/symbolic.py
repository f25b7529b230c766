"""The one assembly algorithm: a symbolic plan plus a numeric replay.

Assembly splits naturally into a *symbolic* phase — canonicalise
orientations, sort contribution keys, find segment boundaries, derive
the output (row, col) pattern — and a *numeric* phase that only moves
and sums block payloads. The symbolic phase depends exclusively on the
contribution index pattern ``(diag_idx, off_rows, off_cols)``, which is
constant across the open–close sweeps of a step (contact states change
the block *values*, never the pattern) and usually across consecutive
steps too.

:class:`AssemblyPlan` is the only code in the package that sums
contributions. Both assemblers
(:func:`~repro.assembly.global_matrix.assemble_serial` and
:func:`~repro.assembly.global_matrix.assemble_gpu`) are "build the
plan, then :meth:`AssemblyPlan.assemble`", and every engine assembles
through a plan it caches:

* the diagonal and the off-diagonal streams are both stable-sorted by
  key and segment-reduced left to right — the paper's Fig.-4 scheme —
  so every engine sums each block's contributions in the same order and
  a reused plan is bit-identical to a fresh one;
* built with a virtual device, the plan records the Fig.-4 launches
  (radix-sort passes, segmented reductions, orientation and payload
  gather kernels) in the order the GPU pipeline issues them; all of
  them are priced from the pattern alone. The engine keeps the launch
  slice of a build in :attr:`AssemblyPlan.launches` and *replays* it on
  every reuse, so the modelled device seconds are bit-identical whether
  the plan hit or missed;
* the scatter sanitizer sees the segment-write targets on every
  assembly (the plan calls :func:`~repro.lint.sanitize.scatter_check`
  itself), so planted ``scatter_duplicate_index`` faults are detected
  on the reuse path too.

Invalidation is belt and braces: the engine proactively drops its plan
when the contact transfer layer reports a topology change
(:func:`repro.contact.transfer.topology_changed`), and
:meth:`AssemblyPlan.matches` exactly compares the incoming index
pattern before any reuse, so a stale plan can never produce a wrong
matrix — only a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.lint.sanitize import scatter_check
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.reduce import (
    segment_boundaries,
    segmented_reduce,
    segmented_reduce_counters,
)
from repro.util.validation import check_array

#: Bytes of one 6x6 float64 payload.
_BLOCK_BYTES = BS * BS * 8
#: Stand-in payload for the radix sort: only its item size is priced.
_PAYLOAD = np.zeros(1)


@dataclass
class AssemblyPlan:
    """One cached symbolic assembly: pattern, permutations, replay ledger.

    Attributes
    ----------
    n:
        Number of block rows/columns.
    diag_idx:
        ``(q,)`` diagonal contribution pattern the plan was built for.
    off_rows, off_cols:
        ``(m,)`` off-diagonal contribution pattern (either orientation).
    diag_perm, diag_starts, diag_out:
        ``(q,)`` stable sort permutation of ``diag_idx``, ``(d,)``
        segment starts into the sorted stream and ``(d,)`` the block
        each segment sums into.
    swap:
        ``(m,)`` bool — contributions needing the upper-triangle
        transpose.
    perm:
        ``(m,)`` stable sort permutation of the canonical pair keys.
    starts:
        ``(s,)`` segment start positions into the sorted stream.
    ukey:
        ``(s,)`` unique canonical pair keys (the segment identities).
    out_rows, out_cols:
        ``(s,)`` output block coordinates, sorted and unique.
    launches:
        The ``(name, counters)`` kernel launches the engine recorded
        while building the plan — the Fig.-4 kernels when built on a
        device, plus whatever the engine priced alongside — replayed
        verbatim on each reuse.
    """

    n: int
    diag_idx: np.ndarray
    off_rows: np.ndarray
    off_cols: np.ndarray
    diag_perm: np.ndarray
    diag_starts: np.ndarray
    diag_out: np.ndarray
    swap: np.ndarray
    perm: np.ndarray
    starts: np.ndarray
    ukey: np.ndarray
    out_rows: np.ndarray
    out_cols: np.ndarray
    launches: tuple[tuple[str, KernelCounters], ...] = ()

    @classmethod
    def build(
        cls,
        n: int,
        diag_idx: np.ndarray,
        off_rows: np.ndarray,
        off_cols: np.ndarray,
        device: VirtualDevice | None = None,
    ) -> "AssemblyPlan":
        """Run the symbolic phase for one contribution pattern.

        ``diag_idx`` is ``(q,)`` block indices (duplicates allowed),
        ``off_rows`` / ``off_cols`` are ``(m,)`` in either orientation
        (duplicates allowed, ``off_rows[k] == off_cols[k]`` rejected).
        With a ``device`` the Fig.-4 launches are recorded on it.
        """
        diag_idx = check_array("diag_idx", diag_idx, dtype=np.int64, ndim=1)
        off_rows = check_array("off_rows", off_rows, dtype=np.int64, ndim=1)
        m = off_rows.shape[0]
        off_cols = check_array("off_cols", off_cols, dtype=np.int64,
                               shape=(m,))
        if m and np.any(off_rows == off_cols):  # lint: sync-ok[validation-gate] -- rejects malformed contribution streams
            raise ValueError("off-diagonal contribution with row == col")
        q = diag_idx.shape[0]

        # --- diagonal: sort indices, segment-reduce ---
        sdiag, diag_perm = radix_sort_pairs(
            diag_idx, _PAYLOAD, device if q else None,
            key_bits=max(1, int(n - 1).bit_length()),
        )
        diag_starts = segment_boundaries(sdiag)
        if device is not None and q:
            device.launch(
                "segmented_reduce",
                segmented_reduce_counters(q, BS * BS, diag_starts.size),
            )

        # --- off-diagonal: canonicalise, sort by pair key, segment-reduce
        swap = off_rows > off_cols
        key = np.where(swap, off_cols, off_rows) * n + np.where(
            swap, off_rows, off_cols
        )
        if device is not None and m:
            # the canonicalisation kernel: one transpose decision per entry
            entry = 16 + _BLOCK_BYTES
            device.launch(
                "canonical_orient",
                KernelCounters(
                    flops=2.0 * m,
                    global_bytes_read=m * entry,
                    global_bytes_written=m * entry,
                    global_txn_read=coalesced_transactions(m, entry),
                    global_txn_written=coalesced_transactions(m, entry),
                    threads=m,
                    warps=max(1, m // WARP_SIZE),
                    branch_regions=max(1, m // WARP_SIZE),
                    divergent_branch_regions=max(1, m // WARP_SIZE) * 0.5,
                ),
            )
        skey, perm = radix_sort_pairs(
            key, _PAYLOAD, device if m else None,
            key_bits=max(1, int(n * n - 1).bit_length()),
        )
        starts = segment_boundaries(skey)
        if device is not None and m:
            # the final payload gather (sub-matrices move once, per the
            # paper), then the segmented reduction
            device.launch(
                "gather_submatrices",
                KernelCounters(
                    flops=0.0,
                    global_bytes_read=m * _BLOCK_BYTES,
                    global_bytes_written=m * _BLOCK_BYTES,
                    global_txn_read=float(
                        gather_transactions(perm, _BLOCK_BYTES)
                    ),
                    global_txn_written=coalesced_transactions(
                        m, _BLOCK_BYTES
                    ),
                    threads=m * BS,
                    warps=max(1, m * BS // WARP_SIZE),
                ),
            )
            device.launch(
                "segmented_reduce",
                segmented_reduce_counters(m, BS * BS, starts.size),
            )
        ukey = skey[starts]
        return cls(
            n=n,
            diag_idx=diag_idx.copy(),
            off_rows=off_rows.copy(),
            off_cols=off_cols.copy(),
            diag_perm=diag_perm,
            diag_starts=diag_starts,
            diag_out=sdiag[diag_starts],
            swap=swap,
            perm=perm,
            starts=starts,
            ukey=ukey,
            out_rows=ukey // n,
            out_cols=ukey % n,
        )

    # ------------------------------------------------------------------
    def matches(
        self,
        diag_idx: np.ndarray,
        off_rows: np.ndarray,
        off_cols: np.ndarray,
    ) -> bool:
        """Exact pattern equality gate (``(q,)`` + ``(m,)`` compares).

        Cheap — three integer array comparisons — and *total*: reuse is
        only ever allowed on a bit-for-bit identical contribution
        pattern, so correctness never depends on the proactive
        transfer-layer invalidation.
        """
        return bool(
            diag_idx.shape == self.diag_idx.shape
            and off_rows.shape == self.off_rows.shape
            and np.array_equal(diag_idx, self.diag_idx)
            and np.array_equal(off_rows, self.off_rows)
            and np.array_equal(off_cols, self.off_cols)
        )

    def assemble(
        self,
        diag_blocks: np.ndarray,
        off_blocks: np.ndarray,
    ) -> BlockMatrix:
        """Numeric-only assembly under the cached symbolic phase.

        ``diag_blocks`` is ``(q, 6, 6)``, ``off_blocks`` is
        ``(m, 6, 6)`` in the orientation of the plan's input pattern
        (``K_ji`` inputs are transposed into ``K_ij``). Each block's
        contributions are summed left to right in stable-sorted order.
        """
        q = self.diag_idx.shape[0]
        m = self.off_rows.shape[0]
        diag_blocks = check_array("diag_blocks", diag_blocks,
                                  dtype=np.float64, shape=(q, BS, BS))
        off_blocks = check_array("off_blocks", off_blocks,
                                 dtype=np.float64, shape=(m, BS, BS))
        diag = np.zeros((self.n, BS, BS))
        if q:
            sums = segmented_reduce(
                diag_blocks[self.diag_perm].reshape(q, BS * BS),
                self.diag_starts,
            )
            scatter_check("assembly_plan.diag_segment_write", self.diag_out)
            diag[self.diag_out] = sums.reshape(-1, BS, BS)
        if m == 0:
            return BlockMatrix(
                self.n, diag, self.out_rows, self.out_cols,
                np.zeros((0, BS, BS)),
            )
        b = np.where(
            self.swap[:, None, None],
            off_blocks.transpose(0, 2, 1),
            off_blocks,
        )
        summed = segmented_reduce(
            b[self.perm].reshape(m, BS * BS), self.starts
        )
        scatter_check("assembly_plan.offdiag_segment_write", self.ukey)
        return BlockMatrix(
            self.n,
            diag,
            self.out_rows,
            self.out_cols,
            summed.reshape(-1, BS, BS),
        )

    def replay(self, device: VirtualDevice) -> None:
        """Re-record the captured launch ledger (scalar count) on
        ``device`` so modelled seconds match a from-scratch assembly."""
        for name, counters in self.launches:
            device.launch(name, counters)
