"""Tests for the scheduler registry: names, aliases, factories."""

import pytest

from repro.exceptions import ConfigurationError
from repro.scheduling import (
    LruCacheModel,
    ReadScheduler,
    WaterFillingScheduler,
    create,
    lookup,
    registered_schedulers,
    scheduler_names,
)

DEVICES = ["d0", "d1", "d2", "d3"]


class TestLookup:
    def test_canonical_names_resolve(self):
        for name in scheduler_names():
            assert lookup(name).name == name

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("first", "primary"),
            ("rotate", "round-robin"),
            ("round_robin", "round-robin"),
            ("ll", "least-loaded"),
            ("least_loaded", "least-loaded"),
            ("po2", "power-of-two"),
            ("power_of_two", "power-of-two"),
            ("power-of-two-choices", "power-of-two"),
            ("wf", "water-filling"),
            ("water_filling", "water-filling"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert lookup(alias) is lookup(canonical)

    def test_unknown_name_lists_registered_policies(self):
        with pytest.raises(ConfigurationError, match="power-of-two"):
            lookup("no-such-policy")

    def test_unknown_name_message_lists_canonical_names_once(self):
        with pytest.raises(
            ConfigurationError, match="unknown scheduling policy"
        ) as info:
            lookup("no-such-policy")
        message = str(info.value)
        assert "'round-robin'" in message
        # Aliases never pad the choices list out.
        assert "po2" not in message and "rotate" not in message


class TestNames:
    def test_water_filling_is_offline(self):
        assert not lookup("water-filling").online
        assert all(
            lookup(name).online for name in scheduler_names(online_only=True)
        )

    def test_online_only_excludes_offline_baselines(self):
        names = scheduler_names(online_only=True)
        assert "water-filling" not in names
        assert "power-of-two" in names

    def test_include_aliases(self):
        names = scheduler_names(include_aliases=True)
        assert "po2" in names and "rotate" in names

    def test_registration_order_is_stable(self):
        assert scheduler_names() == tuple(
            entry.name for entry in registered_schedulers()
        )


class TestCreate:
    def test_builds_named_scheduler(self):
        for name in scheduler_names():
            scheduler = create(name, DEVICES, seed=3)
            assert isinstance(scheduler, ReadScheduler)
            assert scheduler.name == name
            assert scheduler.device_ids == DEVICES
            assert scheduler.seed == 3

    def test_alias_builds_canonical_policy(self):
        assert create("po2", DEVICES).name == "power-of-two"
        assert isinstance(create("wf", DEVICES), WaterFillingScheduler)

    def test_cache_is_threaded_through(self):
        cache = LruCacheModel(8)
        scheduler = create("least-loaded", DEVICES, cache=cache)
        assert scheduler.cache is cache

    def test_offline_baseline_refuses_per_request_choose(self):
        scheduler = create("water-filling", DEVICES)
        with pytest.raises(ConfigurationError, match="offline"):
            scheduler.choose(1, DEVICES[:3])


class TestOptions:
    """The scheduler registry shares the placement registry's option
    validation: no policy declares an option, so every keyword option is
    a :class:`ConfigurationError` naming the offender."""

    def test_unknown_option_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match="namespc"):
            create("random", DEVICES, namespc="typo")

    def test_wrong_option_type_is_rejected(self):
        # ``namespace`` is no option: refused whatever its value's type.
        with pytest.raises(ConfigurationError, match="namespace"):
            create("round-robin", DEVICES, namespace=7)

    def test_options_to_none_declaring_policy_are_rejected(self):
        for name in scheduler_names():
            assert lookup(name).options == ()
            with pytest.raises(ConfigurationError, match="declares no options"):
                create(name, DEVICES, namespace="x")
