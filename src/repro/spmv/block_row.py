"""The block-row host kernel behind every product inside PCG.

The *modelled* clock prices the paper's GPU formats from their
structure alone; the *wall* clock pays for one compiled kernel instead:
``scipy.sparse``'s BSR matvec (``op @ x``), a C loop over the 6x6 blocks
of each block row. Its operand for a :class:`BlockMatrix` is the **full
symmetric block-row layout** — diagonal, upper blocks and their
transposes, every block row sorted by column. :class:`BlockRowLayout`
is that layout's structure; it depends only on the sparsity pattern,
so it is built once per pattern and a value refresh is one gather.

The kernel sums each output component left to right over its row's
blocks in storage order, so two operands holding the same blocks in the
same per-row order give bit-identical products (the domain SpMV relies
on this), and against the exact product the error is at most
``gamma_k |A| |x|`` componentwise, ``k = 6 (1 + r)`` for a row with
``r`` off-diagonal blocks (the contract table in
``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import bsr_matrix

from repro.assembly.global_matrix import BS, BlockMatrix


def row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    """``(n+1,)`` CSR-style row pointers of sorted ``(m,)`` block rows."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def block_operator(
    blocks: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    n_cols: int,
) -> bsr_matrix:
    """The kernel's operand: ``(n_rows*6, n_cols*6)`` BSR from 6x6 blocks.

    ``blocks`` is ``(nnzb, 6, 6)``, ``indices`` the ``(nnzb,)`` block
    column of each, ``indptr`` the ``(n_rows+1,)`` block-row pointers.
    Columns need not be sorted within a row: the kernel visits blocks
    in storage order, and that order fixes the rounding.
    """
    n_rows = indptr.shape[0] - 1
    return bsr_matrix(
        (blocks, indices, indptr), shape=(n_rows * BS, n_cols * BS)
    )


def block_diagonal(blocks: np.ndarray) -> bsr_matrix:
    """Block-diagonal operator of ``(n, 6, 6)`` blocks, ``(6n, 6n)``."""
    ids = np.arange(blocks.shape[0], dtype=np.int64)
    return block_operator(
        blocks, ids, np.arange(blocks.shape[0] + 1, dtype=np.int64),
        blocks.shape[0],
    )


def strict_upper(a: BlockMatrix) -> bsr_matrix:
    """Strict block upper triangle ``U`` of ``a`` as a ``(6n, 6n)`` operator."""
    return block_operator(a.blocks, a.cols, row_pointers(a.rows, a.n), a.n)


@dataclass(frozen=True)
class BlockRowLayout:
    """Structure of the full symmetric block-row layout of one pattern.

    Attributes
    ----------
    n:
        Number of block rows (scalar).
    indptr:
        ``(n+1,)`` block-row pointers.
    indices:
        ``(n+2m,)`` block column of each stored block, sorted within
        each row (the diagonal block sits at its column position).
    position:
        ``(n+2m,)`` layout position of each block of the stacked
        ``[diag; upper; upper^T]`` array of ``n + 2m`` blocks.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    position: np.ndarray

    @classmethod
    def from_pattern(
        cls, n: int, rows: np.ndarray, cols: np.ndarray
    ) -> "BlockRowLayout":
        """Layout of the pattern with ``(m,)`` upper coordinates ``rows < cols``."""
        ids = np.arange(n, dtype=np.int64)
        idx_i = np.concatenate([ids, rows, cols])
        idx_j = np.concatenate([ids, cols, rows])
        order = np.argsort(idx_i * n + idx_j, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.shape[0], dtype=np.int64)
        return cls(n=n, indptr=row_pointers(idx_i, n), indices=idx_j[order],
                   position=position)

    def gather(self, a: BlockMatrix) -> np.ndarray:
        """``(n+2m, 6, 6)`` stored blocks of ``a`` in layout order."""
        n, m = a.n, a.n_offdiag
        out = np.empty((n + 2 * m, BS, BS))
        out[self.position[:n]] = a.diag
        out[self.position[n:n + m]] = a.blocks
        out[self.position[n + m:]] = a.blocks.transpose(0, 2, 1)
        return out

    def operator(self, a: BlockMatrix) -> bsr_matrix:
        """The full symmetric ``a`` as a ``(6n, 6n)`` kernel operand."""
        return block_operator(self.gather(a), self.indices, self.indptr,
                              self.n)
