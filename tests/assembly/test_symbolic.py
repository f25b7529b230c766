"""AssemblyPlan: bit-identity, launch replay, and invalidation."""

import numpy as np
import pytest

from repro.assembly.global_matrix import BS, assemble_gpu, assemble_serial
from repro.assembly.symbolic import AssemblyPlan
from repro.contact.contact_set import VE, ContactSet
from repro.contact.transfer import topology_changed
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice


def contribution_stream(seed, n=7, q=24, m=40):
    """A random assembly stream with plenty of duplicate (row, col) pairs."""
    rng = np.random.default_rng(seed)
    diag_idx = rng.integers(0, n, size=q)
    off_rows = rng.integers(0, n, size=m)
    # off-diagonal: j != i, both orientations present
    off_cols = (off_rows + 1 + rng.integers(0, n - 1, size=m)) % n
    diag_blocks = rng.standard_normal((q, BS, BS))
    off_blocks = rng.standard_normal((m, BS, BS))
    return n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks


class TestPlanBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_both_assemblers(self, seed):
        """A plan reproduces both assemblers bit-for-bit.

        Both assemblers are the plan, so they agree with each other too,
        diagonal duplicates included.
        """
        n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks = (
            contribution_stream(seed)
        )
        ref_serial = assemble_serial(
            n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks
        )
        ref_gpu = assemble_gpu(
            n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks,
            VirtualDevice(K40),
        )
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
        out = plan.assemble(diag_blocks, off_blocks)
        for ref in (ref_serial, ref_gpu):
            np.testing.assert_array_equal(out.diag, ref.diag)
            np.testing.assert_array_equal(out.rows, ref.rows)
            np.testing.assert_array_equal(out.cols, ref.cols)
            np.testing.assert_array_equal(out.blocks, ref.blocks)

    def test_new_values_same_pattern(self):
        """A reused plan assembles fresh values exactly."""
        n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks = (
            contribution_stream(0)
        )
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
        rng = np.random.default_rng(99)
        diag2 = rng.standard_normal(diag_blocks.shape)
        off2 = rng.standard_normal(off_blocks.shape)
        ref = assemble_serial(n, diag_idx, diag2, off_rows, off_cols, off2)
        out = plan.assemble(diag2, off2)
        np.testing.assert_array_equal(out.diag, ref.diag)
        np.testing.assert_array_equal(out.blocks, ref.blocks)

    def test_empty_offdiagonal(self):
        n, diag_idx, diag_blocks, _, _, _ = contribution_stream(0)
        z = np.zeros(0, dtype=np.int64)
        zb = np.zeros((0, BS, BS))
        plan = AssemblyPlan.build(n, diag_idx, z, z)
        out = plan.assemble(diag_blocks, zb)
        ref = assemble_serial(n, diag_idx, diag_blocks, z, z, zb)
        np.testing.assert_array_equal(out.diag, ref.diag)
        assert out.n_offdiag == 0


class TestLaunchReplay:
    def test_replay_reproduces_ledger(self):
        n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks = (
            contribution_stream(1)
        )
        dev_a = VirtualDevice(K40)
        assemble_gpu(
            n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks, dev_a
        )
        dev_plan = VirtualDevice(K40)
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols, dev_plan)
        recorded = tuple((r.name, r.counters) for r in dev_plan.records)
        assert recorded == tuple((r.name, r.counters) for r in dev_a.records)
        # what an engine captures on a miss
        plan.launches = recorded
        dev_b = VirtualDevice(K40)
        plan.replay(dev_b)
        assert [r.name for r in dev_b.records] == [
            r.name for r in dev_a.records
        ]
        assert dev_b.total_time == dev_a.total_time


class TestInvalidation:
    def test_matches_is_exact(self):
        n, diag_idx, _, off_rows, off_cols, _ = contribution_stream(2)
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
        assert plan.matches(diag_idx, off_rows, off_cols)
        # shape change
        assert not plan.matches(diag_idx[:-1], off_rows, off_cols)
        assert not plan.matches(diag_idx, off_rows[:-1], off_cols[:-1])
        # value change
        bumped = diag_idx.copy()
        bumped[0] = (bumped[0] + 1) % n
        assert not plan.matches(bumped, off_rows, off_cols)
        swapped = off_rows.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        if not np.array_equal(swapped, off_rows):
            assert not plan.matches(diag_idx, swapped, off_cols)

    def test_topology_changed(self):
        def table(block_j, vertex_idx):
            m = len(block_j)
            return ContactSet(
                block_i=np.zeros(m, dtype=np.int64),
                block_j=np.asarray(block_j, dtype=np.int64),
                vertex_idx=np.asarray(vertex_idx, dtype=np.int64),
                e1_idx=np.arange(m, dtype=np.int64) + 10,
                e2_idx=np.arange(m, dtype=np.int64) + 20,
                kind=np.full(m, VE, dtype=np.int64),
            )

        a = table([1, 2], [3, 4])
        same = table([1, 2], [3, 4])
        assert not topology_changed(a, same, 100)
        # state flips alone are not topology
        same.state[:] = 2
        same.pn[:] = 5.0
        assert not topology_changed(a, same, 100)
        # different pair count
        assert topology_changed(a, table([1], [3]), 100)
        # different block pair
        assert topology_changed(a, table([1, 3], [3, 4]), 100)
        # same blocks, different contact data (vertex index)
        assert topology_changed(a, table([1, 2], [3, 5]), 100)
