"""The block-sparse symmetric global matrix and its two assemblers.

:class:`BlockMatrix` stores what the paper's solver consumes: the ``n``
diagonal 6x6 blocks plus the strictly-upper non-diagonal blocks (the lower
triangle is implied by symmetry and never materialised — the HSBCSR SpMV
exploits exactly this).

Assembly input is a *contribution stream*: every contact produces one
``K_ii``, one ``K_jj`` and one ``K_ij`` 6x6 block, and several contacts
touch the same (i, j). Both assemblers run the paper's Fig.-4 scheme —
radix-sort the contributions by block key, find segment boundaries with
the flag + scan construction, and segment-reduce — which is how the GPU
version avoids memory write conflicts without atomics. The scheme lives
once, in :class:`~repro.assembly.symbolic.AssemblyPlan`;
:func:`assemble_gpu` prices its launches on a virtual device and
:func:`assemble_serial` prices none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import VirtualDevice
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
        y = np.einsum("nij,nj->ni", self.diag, xb).reshape(-1)
        if self.n_offdiag:
            upper = np.einsum("mij,mj->mi", self.blocks, xb[self.cols])
            lower = np.einsum("mji,mj->mi", self.blocks, xb[self.rows])
            rows = np.concatenate([self.rows, self.cols])
            # one bin per scalar row: block row * 6 + component
            bins = (rows[:, None] * BS + np.arange(BS)).reshape(-1)
            y = y + np.bincount(
                bins, np.concatenate([upper, lower]).reshape(-1),
                minlength=self.n * BS,
            )
        return y

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


def assemble_serial(
    n: int,
    diag_idx: np.ndarray,
    diag_blocks: np.ndarray,
    off_rows: np.ndarray,
    off_cols: np.ndarray,
    off_blocks: np.ndarray,
) -> BlockMatrix:
    """Assemble a contribution stream on the host, pricing nothing.

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

    The same plan as :func:`assemble_gpu`, so the result is bit-identical
    to it; the serial pipeline charges its own single-core launch.
    """
    # symbolic.py imports this module for BlockMatrix
    from repro.assembly.symbolic import AssemblyPlan

    plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
    return plan.assemble(diag_blocks, off_blocks)


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

    Steps (each a kernel on the virtual device, when one is given):

    1. every contribution's 6x6 block is already computed in parallel
       (array ``D`` in the paper — here ``off_blocks``);
    2. radix-sort contribution *keys* (block number pairs) — the sub-matrix
       payloads are moved only once, in the final gather;
    3. boundary flags ``di[k] = (SD[k] != SD[k-1])`` + scan give segment
       starts;
    4. segmented reduction sums each (i, j)'s contributions.

    Arguments are those of :func:`assemble_serial`. Steps 2–3 are the
    symbolic :class:`~repro.assembly.symbolic.AssemblyPlan`, step 4 its
    numeric phase.
    """
    from repro.assembly.symbolic import AssemblyPlan

    plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols, device)
    return plan.assemble(diag_blocks, off_blocks)
