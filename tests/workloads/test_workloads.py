"""Tests for the address generators and batch samplers."""

import collections
import hashlib

import pytest

from repro.workloads import ZipfGenerator, flash_crowd_sample, uniform_sample


class TestUniform:
    def test_range_and_determinism(self):
        first = list(uniform_sample(100, 50, seed=1))
        second = list(uniform_sample(100, 50, seed=1))
        assert first == second
        assert all(0 <= value < 50 for value in first)

    def test_different_seeds_differ(self):
        assert list(uniform_sample(50, 1000, seed=1)) != list(
            uniform_sample(50, 1000, seed=2)
        )

    def test_bad_universe(self):
        with pytest.raises(ValueError):
            uniform_sample(1, 0)
        with pytest.raises(ValueError):
            uniform_sample(-1, 10)

    def test_roughly_uniform(self):
        counts = collections.Counter(uniform_sample(20_000, 10, seed=3))
        for value in range(10):
            assert counts[value] / 20_000 == pytest.approx(0.1, abs=0.02)


class TestZipf:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, alpha=0)
        with pytest.raises(ValueError):
            ZipfGenerator(10).sample(-1)

    def test_determinism(self):
        generator = ZipfGenerator(100, alpha=1.2, seed=7)
        assert list(generator.sample(50)) == list(
            ZipfGenerator(100, alpha=1.2, seed=7).sample(50)
        )

    def test_skew(self):
        generator = ZipfGenerator(1000, alpha=1.2, seed=1)
        counts = collections.Counter(generator.sample(10_000))
        top = counts[0]
        mid = counts.get(100, 0)
        assert top > 10 * max(mid, 1)

    def test_range(self):
        generator = ZipfGenerator(16, seed=2)
        assert all(0 <= value < 16 for value in generator.sample(500))


class TestBatchSamplers:
    """Each distribution's one generator is element-wise identical on the
    NumPy and pure legs."""

    def _both_legs(self, build):
        import repro._compat as compat

        fast = [int(value) for value in build()]
        saved = compat.np
        compat.np = None
        try:
            pure = [int(value) for value in build()]
        finally:
            compat.np = saved
        assert fast == pure
        return fast

    def test_uniform_sample_range_and_legs(self):
        values = self._both_legs(lambda: uniform_sample(500, 64, seed=9))
        assert all(0 <= value < 64 for value in values)
        assert values == self._both_legs(lambda: uniform_sample(500, 64, seed=9))

    def test_uniform_sample_universe_fits_int64_on_both_legs(self, monkeypatch):
        import repro._compat as compat

        top = self._both_legs(lambda: uniform_sample(200, 2**63, seed=4))
        assert all(0 <= value < 2**63 for value in top)
        assert max(top) >= 2**62  # the draws really span the top half
        for leg in (compat.np, None):
            monkeypatch.setattr(compat, "np", leg)
            for universe in (2**63 + 1, 2**64):
                with pytest.raises(ValueError, match="2\\*\\*63"):
                    uniform_sample(1, universe)

    def test_zipf_sample_matches_distribution_and_legs(self):
        values = self._both_legs(
            lambda: ZipfGenerator(100, alpha=1.2, seed=7).sample(2_000)
        )
        assert all(0 <= value < 100 for value in values)
        counts = collections.Counter(values)
        assert counts[0] > counts.get(50, 0)

    def test_flash_crowd_sample_legs_and_window(self):
        sampled = self._both_legs(
            lambda: flash_crowd_sample(
                1_000, 50, crowd_weight=0.8, crowd_size=2, seed=3
            )
        )
        # the crowd window really concentrates traffic on the targets
        window = sampled[250:750]
        top_two = collections.Counter(window).most_common(2)
        assert sum(count for _, count in top_two) > 0.6 * len(window)

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError):
            flash_crowd_sample(10, 5, crowd_weight=1.5)
        with pytest.raises(ValueError):
            flash_crowd_sample(10, 5, crowd_size=0)
        with pytest.raises(ValueError):
            flash_crowd_sample(10, 5, window=(0.9, 0.1))

    #: SHA-256 over ``repr`` of each case's draws, in order.  The e2e
    #: benchmark, ``repro sched`` and the TAB-REQ skew curve consume these
    #: samplers, so their draws must not move.
    PIN = "59ab9c3c1f36d5662b7188aeeea048cb78bead4ba8f3e11818de32d6b2d7dca4"

    def test_samplers_are_pinned(self):
        cases = [
            lambda: uniform_sample(1_000, 64, seed=9),
            lambda: uniform_sample(500, 2**40, seed=3, start=123),
            lambda: uniform_sample(2_000, 1_000_003, seed=11),
            lambda: ZipfGenerator(100, alpha=1.2, seed=7).sample(2_000),
            lambda: ZipfGenerator(1_000, alpha=1.1, seed=13).sample(1_500, start=40),
            lambda: ZipfGenerator(16, alpha=0.8, seed=2).sample(500),
            lambda: flash_crowd_sample(
                1_000, 50, crowd_weight=0.8, crowd_size=2, seed=3
            ),
            lambda: flash_crowd_sample(2_000, 1_000),
            lambda: flash_crowd_sample(
                500, 7, crowd_weight=1.0, crowd_size=3, window=(0.0, 0.5), seed=5
            ),
        ]
        digest = hashlib.sha256()
        for case in cases:
            digest.update(repr(self._both_legs(case)).encode())
        assert digest.hexdigest() == self.PIN
