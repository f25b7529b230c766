import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contact.broad_phase import (
    broad_phase_pairs,
    broad_phase_pairs_python,
    gpu_pair_mapping,
    sort_pairs,
)


def random_aabbs(rng, n, world=10.0, size=1.0):
    lo = rng.uniform(0, world, size=(n, 2))
    hi = lo + rng.uniform(0.1, size, size=(n, 2))
    return np.concatenate([lo, hi], axis=1)


class TestGpuPairMapping:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 31])
    def test_covers_all_pairs_exactly_once(self, n):
        i, j = gpu_pair_mapping(n)
        assert i.size == n * (n - 1) // 2
        keys = set(zip(i.tolist(), j.tolist()))
        expected = {(a, b) for a in range(n) for b in range(a + 1, n)}
        assert keys == expected

    def test_trivial_sizes(self):
        i, j = gpu_pair_mapping(1)
        assert i.size == 0

    def test_load_balance(self):
        # each row of the reshaped matrix holds (about) n/2 tests —
        # that is the point of the reshape
        n = 32
        rows = np.repeat(np.arange(n), n // 2)
        # row r appears as originating row n//2 times before dedup;
        # after dedup each unordered pair appears once and rows are
        # near-uniform
        i, j = gpu_pair_mapping(n)
        counts = np.bincount(np.concatenate([i, j]), minlength=n)
        assert counts.max() - counts.min() <= 1


class TestBroadPhase:
    def test_matches_python_reference(self, rng, device):
        aabbs = random_aabbs(rng, 40)
        gi, gj = sort_pairs(*broad_phase_pairs(aabbs, 0.1, device))
        pi, pj = sort_pairs(*broad_phase_pairs_python(aabbs, 0.1))
        np.testing.assert_array_equal(gi, pi)
        np.testing.assert_array_equal(gj, pj)
        assert device.launches() == 1

    def test_disjoint_boxes(self):
        aabbs = np.array([[0, 0, 1, 1], [5, 5, 6, 6.0]])
        i, j = broad_phase_pairs(aabbs, 0.1)
        assert i.size == 0

    def test_touching_with_margin(self):
        aabbs = np.array([[0, 0, 1, 1], [1.05, 0, 2, 1.0]])
        i, j = broad_phase_pairs(aabbs, 0.1)
        assert i.size == 1
        i, j = broad_phase_pairs(aabbs, 0.01)
        assert i.size == 0

    def test_single_block(self):
        i, j = broad_phase_pairs(np.array([[0, 0, 1, 1.0]]), 0.1)
        assert i.size == 0

    def test_all_overlapping(self):
        aabbs = np.tile(np.array([[0, 0, 1, 1.0]]), (5, 1))
        i, j = broad_phase_pairs(aabbs, 0.0)
        assert i.size == 10

    @given(st.integers(min_value=2, max_value=40), st.integers(0, 9999))
    @settings(max_examples=30, deadline=None)
    def test_property_gpu_equals_python(self, n, seed):
        rng = np.random.default_rng(seed)
        aabbs = random_aabbs(rng, n, world=5.0, size=2.0)
        gi, gj = sort_pairs(*broad_phase_pairs(aabbs, 0.05))
        pi, pj = sort_pairs(*broad_phase_pairs_python(aabbs, 0.05))
        np.testing.assert_array_equal(gi, pi)
        np.testing.assert_array_equal(gj, pj)


def serial_pairs(aabbs, margin):
    """The serial engine's broad phase: vectorised test, row-major order."""
    return sort_pairs(*broad_phase_pairs(aabbs, margin))


def assert_same_pairs(got, ref):
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


class TestSerialEnginePairs:
    """The serial engine's pairs are the upper-triangle loop's, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64, 301])
    def test_random_boxes(self, n):
        aabbs = random_aabbs(np.random.default_rng(n), n, world=8.0, size=2.0)
        assert_same_pairs(serial_pairs(aabbs, 0.05),
                          broad_phase_pairs_python(aabbs, 0.05))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_touching_exactly_at_the_margin(self, axis):
        margin = 0.25
        a = np.array([0.0, 0.0, 1.0, 1.0])
        b = a.copy()
        b[axis] = 1.0 + margin
        b[axis + 2] = 2.0 + margin
        touching = np.stack([a, b])
        beyond = touching.copy()
        beyond[1, axis] = np.nextafter(1.0 + margin, 2.0)
        for aabbs, expect in ((touching, 1), (beyond, 0)):
            got = serial_pairs(aabbs, margin)
            assert got[0].size == expect
            assert_same_pairs(got, broad_phase_pairs_python(aabbs, margin))

    def test_engine_hands_these_pairs_to_the_narrow_phase(self, monkeypatch):
        from repro.engine import serial_engine
        from repro.meshing.slope_models import build_slope_model

        seen = []
        real = serial_engine.narrow_phase

        def spy(system, i, j, *args, **kwargs):
            seen.append((i, j))
            return real(system, i, j, *args, **kwargs)

        monkeypatch.setattr(serial_engine, "narrow_phase", spy)
        eng = serial_engine.SerialEngine(
            build_slope_model(joint_spacing=10.0, seed=0)
        )
        eng._detect_contacts()
        (got,) = seen
        assert got[0].size > 0
        assert_same_pairs(got, broad_phase_pairs_python(
            eng.system.aabbs, eng.contact_threshold
        ))
