"""The blessed scatter / segmented-reduction seam (rule DDA006).

NumPy's ufunc methods (``np.add.at``, ``np.add.reduceat``,
``np.minimum.reduceat``...) are exactly where a NumPy→CuPy backend port
gets subtle: CuPy covers them partially (``cupyx.scatter_add`` instead
of ``np.add.at``), and on a real device an unordered atomic scatter is
*not* bit-identical to NumPy's left-to-right semantics for
non-associative float addition. Rule DDA006 therefore bans the raw
ufunc methods on the device path and points every caller here — one
reviewed module that a backend shim can swap wholesale.

Every wrapper is a **pure pass-through**: no virtual-device launches,
no counter updates, no copies — the call sites' modelled costs and
bit-exact results (the assembly plan's segment sums, the domain
bit-identity pins) are unchanged by routing through this seam.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scatter_add", "segment_sum", "segment_min", "segment_max"]


def scatter_add(target: np.ndarray, index, values) -> None:
    """Unbuffered in-place scatter-add: ``target[index] += values``
    with repeated-index accumulation.

    ``target``: the destination array, any shape; ``index``: integer
    index array (or tuple of them, e.g. ``(rows, cols)``) selecting
    destinations; ``values``: scalar or array broadcastable to the
    selection. Equivalent to ``np.add.at`` (a CuPy backend maps it to
    ``cupyx.scatter_add``); NumPy's in-order accumulation is preserved
    bit-exactly.
    """
    np.add.at(target, index, values)


def segment_sum(
    values: np.ndarray, starts: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Sum of each segment of ``values`` along ``axis``.

    ``values``: the concatenated per-segment data, shape ``(n, ...)``;
    ``starts``: 1-D segment start offsets into the reduced axis (the
    CSR-style ``indptr[:-1]`` convention of ``np.add.reduceat``).
    Returns one row per segment, shape ``(len(starts), ...)``, summed
    in NumPy's deterministic left-to-right order.
    """
    return np.add.reduceat(values, starts, axis=axis)


def segment_min(
    values: np.ndarray, starts: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Minimum of each segment of ``values`` along ``axis``.

    Same shape conventions and ``starts`` as :func:`segment_sum`.
    """
    return np.minimum.reduceat(values, starts, axis=axis)


def segment_max(
    values: np.ndarray, starts: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Maximum of each segment of ``values`` along ``axis``.

    Same shape conventions and ``starts`` as :func:`segment_sum`.
    """
    return np.maximum.reduceat(values, starts, axis=axis)
