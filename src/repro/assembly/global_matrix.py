"""The block-sparse symmetric global matrix and its two assemblers.

:class:`BlockMatrix` stores what the paper's solver consumes: the ``n``
diagonal 6x6 blocks plus the strictly-upper non-diagonal blocks (the lower
triangle is implied by symmetry and never materialised — the HSBCSR SpMV
exploits exactly this).

Assembly input is a *contribution stream*: every contact produces one
``K_ii``, one ``K_jj`` and one ``K_ij`` 6x6 block, and several contacts
touch the same (i, j). The serial assembler scatter-adds them directly;
:func:`assemble_gpu` reproduces the paper's Fig.-4 scheme — radix-sort the
contributions by block key, find segment boundaries with the flag + scan
construction, and segment-reduce — which is how the GPU version avoids
memory write conflicts without atomics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.lint.sanitize import scatter_check
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.scatter import scatter_add
from repro.primitives.reduce import segment_boundaries, segmented_reduce
from repro.util.validation import check_array

#: Side length of every sub-matrix (6 DOF per block).
BS = 6


@dataclass
class BlockMatrix:
    """Symmetric block-sparse matrix: diagonal + strictly-upper blocks.

    Attributes
    ----------
    n:
        Number of block rows/columns (matrix is ``6n x 6n`` scalar-wise).
    diag:
        ``(n, 6, 6)`` diagonal blocks.
    rows, cols:
        ``(m,)`` upper-triangle block coordinates, ``rows[k] < cols[k]``,
        sorted lexicographically by (row, col), no duplicates.
    blocks:
        ``(m, 6, 6)`` the upper non-diagonal blocks; ``A[j, i] = A[i, j]^T``.
    """

    n: int
    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray

    def __post_init__(self) -> None:
        self.diag = check_array("diag", self.diag, dtype=np.float64,
                                shape=(self.n, BS, BS))
        m = self.rows.shape[0]
        self.rows = check_array("rows", self.rows, dtype=np.int64, shape=(m,))
        self.cols = check_array("cols", self.cols, dtype=np.int64, shape=(m,))
        self.blocks = check_array("blocks", self.blocks, dtype=np.float64,
                                  shape=(m, BS, BS))
        if m:
            if not (self.rows < self.cols).all():  # lint: sync-ok[validation-gate] -- structure check at construction, raises before use
                raise ValueError("off-diagonal entries must satisfy row < col")
            if self.rows.max() >= self.n or self.cols.max() >= self.n:  # lint: sync-ok[validation-gate] -- structure check at construction, raises before use
                raise ValueError("block index out of range")
            key = self.rows * self.n + self.cols
            if np.any(np.diff(key) <= 0):  # lint: sync-ok[validation-gate] -- structure check at construction, raises before use
                raise ValueError("off-diagonal entries must be sorted, unique")

    @property
    def n_offdiag(self) -> int:
        """Number of stored (upper) non-diagonal blocks."""
        return self.rows.shape[0]

    @property
    def nnz_scalar(self) -> int:
        """Scalar non-zeros of the full (symmetric) matrix."""
        return self.n * BS * BS + 2 * self.n_offdiag * BS * BS

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference ``A @ x`` (both triangles applied), NumPy only."""
        x = check_array("x", x, dtype=np.float64, shape=(self.n * BS,))
        xb = x.reshape(self.n, BS)
        y = np.einsum("nij,nj->ni", self.diag, xb)
        if self.n_offdiag:
            upper = np.einsum("mij,mj->mi", self.blocks, xb[self.cols])
            lower = np.einsum("mji,mj->mi", self.blocks, xb[self.rows])
            scatter_add(y, self.rows, upper)
            scatter_add(y, self.cols, lower)
        return y.reshape(-1)

    def to_dense(self) -> np.ndarray:
        """Dense ``(6n, 6n)`` matrix (tests / tiny systems only)."""
        a = np.zeros((self.n * BS, self.n * BS))
        # dense materialisation is for tests/tiny systems, never on GPU
        for i in range(self.n):  # lint: host-ok[DDA001]
            a[i * BS : (i + 1) * BS, i * BS : (i + 1) * BS] = self.diag[i]
        for k in range(self.n_offdiag):  # lint: host-ok[DDA001]
            i, j = self.rows[k], self.cols[k]
            a[i * BS : (i + 1) * BS, j * BS : (j + 1) * BS] = self.blocks[k]
            a[j * BS : (j + 1) * BS, i * BS : (i + 1) * BS] = self.blocks[k].T
        return a

    def to_scipy_csr(self):
        """Full (symmetric) matrix as ``scipy.sparse.csr_matrix``."""
        from repro.spmv.block_row import BlockRowLayout

        layout = BlockRowLayout.from_pattern(self.n, self.rows, self.cols)
        return layout.operator(self).tocsr()


def _canonical_offdiag(
    rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map arbitrary (i, j) contributions to upper-triangle orientation."""
    swap = rows > cols
    r = np.where(swap, cols, rows)
    c = np.where(swap, rows, cols)
    b = np.where(swap[:, None, None], blocks.transpose(0, 2, 1), blocks)
    return r, c, b


def assemble_serial(
    n: int,
    diag_idx: np.ndarray,
    diag_blocks: np.ndarray,
    off_rows: np.ndarray,
    off_cols: np.ndarray,
    off_blocks: np.ndarray,
) -> BlockMatrix:
    """Scatter-add assembly (the CPU pipeline's natural formulation).

    Parameters
    ----------
    n:
        Number of blocks.
    diag_idx, diag_blocks:
        ``(q,)`` block indices with ``(q, 6, 6)`` diagonal contributions
        (duplicates allowed, summed).
    off_rows, off_cols, off_blocks:
        ``(m,)`` + ``(m, 6, 6)`` non-diagonal contributions in either
        orientation (``K_ji`` inputs are transposed into ``K_ij``);
        duplicates summed. ``off_rows[k] == off_cols[k]`` is rejected.
    """
    diag_idx = check_array("diag_idx", diag_idx, dtype=np.int64, ndim=1)
    q = diag_idx.shape[0]
    diag_blocks = check_array("diag_blocks", diag_blocks, dtype=np.float64,
                              shape=(q, BS, BS))
    off_rows = check_array("off_rows", off_rows, dtype=np.int64, ndim=1)
    m = off_rows.shape[0]
    off_cols = check_array("off_cols", off_cols, dtype=np.int64, shape=(m,))
    off_blocks = check_array("off_blocks", off_blocks, dtype=np.float64,
                             shape=(m, BS, BS))
    if m and np.any(off_rows == off_cols):  # lint: sync-ok[validation-gate] -- rejects malformed contribution streams
        raise ValueError("off-diagonal contribution with row == col")

    diag = np.zeros((n, BS, BS))
    scatter_check("assemble_serial.diag_scatter_add", diag_idx,
                  reduction="sum")
    scatter_add(diag, diag_idx, diag_blocks)

    if m == 0:
        return BlockMatrix(n, diag, np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), np.zeros((0, BS, BS)))
    r, c, b = _canonical_offdiag(off_rows, off_cols, off_blocks)
    key = r * n + c
    order = np.argsort(key, kind="stable")
    skey = key[order]
    starts = segment_boundaries(skey)
    summed = segmented_reduce(b[order].reshape(m, BS * BS), starts)
    ukey = skey[starts]
    scatter_check("assemble_serial.offdiag_segment_write", ukey)
    return BlockMatrix(
        n,
        diag,
        (ukey // n).astype(np.int64),
        (ukey % n).astype(np.int64),
        summed.reshape(-1, BS, BS),
    )


def assemble_gpu(
    n: int,
    diag_idx: np.ndarray,
    diag_blocks: np.ndarray,
    off_rows: np.ndarray,
    off_cols: np.ndarray,
    off_blocks: np.ndarray,
    device: VirtualDevice | None = None,
) -> BlockMatrix:
    """The paper's Fig.-4 write-conflict-free assembly.

    Steps (each a kernel on the virtual device):

    1. every contribution's 6x6 block is already computed in parallel
       (array ``D`` in the paper — here ``off_blocks``);
    2. radix-sort contribution *keys* (block number pairs) — the sub-matrix
       payloads are moved only once, in the final gather;
    3. boundary flags ``di[k] = (SD[k] != SD[k-1])`` + scan give segment
       starts;
    4. segmented reduction sums each (i, j)'s contributions.

    Produces bit-identical results to :func:`assemble_serial` given the
    same contribution order within each segment (stable sort + left-to-
    right reduction in both paths).
    """
    diag_idx = check_array("diag_idx", diag_idx, dtype=np.int64, ndim=1)
    q = diag_idx.shape[0]
    diag_blocks = check_array("diag_blocks", diag_blocks, dtype=np.float64,
                              shape=(q, BS, BS))
    off_rows = check_array("off_rows", off_rows, dtype=np.int64, ndim=1)
    m = off_rows.shape[0]
    off_cols = check_array("off_cols", off_cols, dtype=np.int64, shape=(m,))
    off_blocks = check_array("off_blocks", off_blocks, dtype=np.float64,
                             shape=(m, BS, BS))
    if m and np.any(off_rows == off_cols):  # lint: sync-ok[validation-gate] -- rejects malformed contribution streams
        raise ValueError("off-diagonal contribution with row == col")

    # --- diagonal: sort indices, segment-reduce ---
    diag = np.zeros((n, BS, BS))
    if q:
        skeys, perm = radix_sort_pairs(
            diag_idx, diag_blocks[:1], device,
            key_bits=max(1, int(n - 1).bit_length()),
        )
        starts = segment_boundaries(skeys)
        sums = segmented_reduce(
            diag_blocks[perm].reshape(q, BS * BS), starts, device
        )
        scatter_check("assemble_gpu.diag_segment_write", skeys[starts])
        diag[skeys[starts]] = sums.reshape(-1, BS, BS)

    if m == 0:
        return BlockMatrix(n, diag, np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), np.zeros((0, BS, BS)))

    # --- off-diagonal: canonicalise, sort by pair key, segment-reduce ---
    r, c, b = _canonical_offdiag(off_rows, off_cols, off_blocks)
    if device is not None:
        # the canonicalisation kernel: one transpose decision per entry
        device.launch(
            "canonical_orient",
            KernelCounters(
                flops=2.0 * m,
                global_bytes_read=m * (16 + BS * BS * 8),
                global_bytes_written=m * (16 + BS * BS * 8),
                global_txn_read=coalesced_transactions(m, 16 + BS * BS * 8),
                global_txn_written=coalesced_transactions(m, 16 + BS * BS * 8),
                threads=m,
                warps=max(1, m // WARP_SIZE),
                branch_regions=max(1, m // WARP_SIZE),
                divergent_branch_regions=max(1, m // WARP_SIZE) * 0.5,
            ),
        )
    key = r * n + c
    skeys, perm = radix_sort_pairs(
        key, b[:1], device, key_bits=max(1, int(n * n - 1).bit_length())
    )
    starts = segment_boundaries(skeys)
    if device is not None:
        # the final payload gather (sub-matrices move once, per the paper)
        device.launch(
            "gather_submatrices",
            KernelCounters(
                flops=0.0,
                global_bytes_read=m * BS * BS * 8,
                global_bytes_written=m * BS * BS * 8,
                global_txn_read=float(gather_transactions(perm, BS * BS * 8)),
                global_txn_written=coalesced_transactions(m, BS * BS * 8),
                threads=m * BS,
                warps=max(1, m * BS // WARP_SIZE),
            ),
        )
    summed = segmented_reduce(b[perm].reshape(m, BS * BS), starts, device)
    ukey = skeys[starts]
    scatter_check("assemble_gpu.offdiag_segment_write", ukey)
    return BlockMatrix(
        n,
        diag,
        (ukey // n).astype(np.int64),
        (ukey % n).astype(np.int64),
        summed.reshape(-1, BS, BS),
    )
