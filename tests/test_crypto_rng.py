"""Randomness source tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicRng, SystemRng
from repro.errors import ValidationError


class TestDeterministicRng:
    def test_reproducible(self):
        a = DeterministicRng("seed").random_bytes(64)
        b = DeterministicRng("seed").random_bytes(64)
        assert a == b

    def test_seed_separation(self):
        assert (DeterministicRng("a").random_bytes(32)
                != DeterministicRng("b").random_bytes(32))

    def test_seed_types(self):
        assert DeterministicRng(b"x").random_bytes(8) == DeterministicRng(b"x").random_bytes(8)
        DeterministicRng(12345).random_bytes(8)
        DeterministicRng("str").random_bytes(8)

    def test_stream_advances(self):
        rng = DeterministicRng("s")
        assert rng.random_bytes(16) != rng.random_bytes(16)

    def test_fork_independent(self):
        rng = DeterministicRng("s")
        f1 = rng.fork("a")
        f2 = rng.fork("b")
        assert f1.random_bytes(16) != f2.random_bytes(16)
        # Forking does not disturb the parent stream.
        before = DeterministicRng("s")
        before.fork("a")
        assert before.random_bytes(8) == DeterministicRng("s").random_bytes(8)

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=50)
    def test_randint_below_in_range(self, bound):
        rng = DeterministicRng(f"bound{bound}")
        for _ in range(5):
            assert 0 <= rng.randint_below(bound) < bound

    def test_randint_bound_one(self):
        assert DeterministicRng("x").randint_below(1) == 0

    def test_randint_invalid_bound(self):
        with pytest.raises(ValidationError):
            DeterministicRng("x").randint_below(0)

    def test_rough_uniformity(self):
        rng = DeterministicRng("uniform")
        counts = [0] * 4
        for _ in range(2000):
            counts[rng.randint_below(4)] += 1
        for c in counts:
            assert 380 <= c <= 620  # ±~25 % of the expected 500


class TestSystemRng:
    def test_basic(self):
        rng = SystemRng()
        assert len(rng.random_bytes(32)) == 32
        assert 0 <= rng.randint_below(100) < 100

    def test_nontrivial_entropy(self):
        rng = SystemRng()
        assert rng.random_bytes(16) != rng.random_bytes(16)
