"""Tests for the per-device LRU cache model."""

import pytest

from repro.exceptions import ConfigurationError
from repro.scheduling import LruCacheModel


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"capacity": -3},
            {"capacity": 4, "hit_cost": -0.1},
            {"capacity": 4, "hit_cost": float("nan")},
            {"capacity": 4, "hit_cost": 2.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LruCacheModel(**kwargs)


class TestCosts:
    def test_miss_then_hit(self):
        cache = LruCacheModel(4, hit_cost=0.25)
        assert cache.cost("d0", 7) == 1.0
        assert cache.cost("d0", 7) == 0.25
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_devices_have_independent_caches(self):
        cache = LruCacheModel(4)
        cache.cost("d0", 7)
        # Same address on another device is a fresh miss.
        assert cache.cost("d1", 7) == cache.miss_cost
        assert cache.cost("d0", 7) == cache.hit_cost
        assert cache.cost("d1", 7) == cache.hit_cost

    def test_hit_rate_zero_before_any_access(self):
        assert LruCacheModel(1).hit_rate() == 0.0


class TestEviction:
    def test_lru_entry_is_evicted(self):
        cache = LruCacheModel(2)
        cache.cost("d0", 1)
        cache.cost("d0", 2)
        cache.cost("d0", 3)  # evicts 1
        assert cache.cost("d0", 1) == cache.miss_cost  # gone
        assert cache.cost("d0", 3) == cache.hit_cost  # still resident

    def test_hit_refreshes_recency(self):
        cache = LruCacheModel(2)
        cache.cost("d0", 1)
        cache.cost("d0", 2)
        cache.cost("d0", 1)  # 1 is now most recent
        cache.cost("d0", 3)  # evicts 2, not 1
        assert cache.cost("d0", 1) == cache.hit_cost
        assert cache.cost("d0", 2) == cache.miss_cost


class TestAccounting:
    def test_device_stats(self):
        cache = LruCacheModel(4)
        cache.cost("d0", 1)
        cache.cost("d0", 1)
        cache.cost("d1", 2)
        assert cache.device_stats() == {
            "d0": {"hits": 1, "misses": 1},
            "d1": {"hits": 0, "misses": 1},
        }

    def test_reset_clears_everything(self):
        cache = LruCacheModel(4)
        cache.cost("d0", 1)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.device_stats() == {}
        assert cache.cost("d0", 1) == cache.miss_cost
