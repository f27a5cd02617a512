"""The strategy registry: one table the CLI and benches both trust."""

import importlib

import pytest

from repro.core import FastRedundantShare, LinMirror, SequentialChecking
from repro.exceptions import ConfigurationError
from repro.placement import (
    ResidualPerformancePlacement,
    TrivialReplication,
    create,
    registered_strategies,
    strategy_names,
)
from repro.placement.registry import MOVEMENT_CLASSES, lookup
from repro.types import bins_from_capacities

BINS = bins_from_capacities([120, 80, 200, 40, 160])


def test_canonical_names_are_unique_and_stable():
    names = strategy_names()
    assert len(names) == len(set(names))
    for expected in (
        "redundant-share",
        "lin-mirror",
        "fast-redundant-share",
        "trivial",
        "classic-lin-mirror",
        "crush",
        "weighted-striping",
        "balanced-rendezvous",
        "sequential-checking",
        "rpdp",
    ):
        assert expected in names


def test_aliases_resolve_to_canonical_entries():
    assert lookup("fast").name == "fast-redundant-share"
    assert lookup("striping").name == "weighted-striping"
    assert lookup("seq-check").name == "sequential-checking"
    assert lookup("residual-performance").name == "rpdp"
    assert "fast" in strategy_names(include_aliases=True)


def test_unknown_name_raises_with_canonical_choices():
    with pytest.raises(ConfigurationError, match="unknown strategy") as info:
        lookup("definitely-not-a-strategy")
    message = str(info.value)
    # The choices list names each strategy exactly once — canonical
    # names only, no aliases doubling entries up.
    assert "'rpdp'" in message
    assert "residual-performance" not in message
    assert "seq-check" not in message


def test_create_honours_copies_and_fixed_copies():
    assert create("redundant-share", BINS, copies=3).copies == 3
    assert isinstance(create("fast", BINS, copies=3), FastRedundantShare)
    assert isinstance(create("trivial", BINS, copies=3), TrivialReplication)
    # LinMirror is k = 2 by definition, whatever was requested.
    mirror = create("lin-mirror", BINS, copies=5)
    assert isinstance(mirror, LinMirror)
    assert mirror.copies == 2


def test_create_defaults_to_mirroring():
    assert create("redundant-share", BINS).copies == 2


def test_create_threads_typed_options_through():
    sc = create("sequential-checking", BINS, copies=2)
    assert isinstance(sc, SequentialChecking)
    rpdp = create(
        "rpdp", BINS, copies=3, service_rates=(1.0, 2.0, 4.0, 8.0, 16.0)
    )
    assert isinstance(rpdp, ResidualPerformancePlacement)
    assert rpdp.copies == 3
    striping = create("weighted-striping", BINS, copies=2, resolution=128)
    assert striping._resolution == 128


def test_unknown_option_key_is_rejected_with_declared_names():
    with pytest.raises(ConfigurationError, match="unknown option"):
        create("rpdp", BINS, copies=2, service_rate=(1, 2, 3, 4, 5))
    with pytest.raises(ConfigurationError, match="'service_rates'"):
        create("rpdp", BINS, copies=2, bogus=1)


def test_wrong_option_type_is_rejected():
    with pytest.raises(ConfigurationError, match="resolution"):
        create("weighted-striping", BINS, copies=2, resolution="wide")
    with pytest.raises(ConfigurationError, match="service_rates"):
        create("rpdp", BINS, copies=2, service_rates="fast")
    with pytest.raises(ConfigurationError, match="overflow"):
        create("sequential-checking", BINS, copies=2, overflow="explode")


def test_options_to_none_declaring_strategy_are_rejected():
    with pytest.raises(ConfigurationError, match="declares no options"):
        create("trivial", BINS, copies=2, resolution=64)


def test_fixed_copies_entry_still_validates_options():
    # lin-mirror pins k = 2 *and* declares no options; option validation
    # must fire even on fixed-copies entries.
    with pytest.raises(ConfigurationError, match="declares no options"):
        create("lin-mirror", BINS, copies=5, resolution=64)


def test_capability_flags_are_declared_and_legal():
    by_name = {entry.name: entry for entry in registered_strategies()}
    for entry in by_name.values():
        assert entry.movement_class in MOVEMENT_CLASSES, entry.name
    assert by_name["sequential-checking"].movement_class == "zero"
    assert by_name["sequential-checking"].supports_scale_out
    assert by_name["weighted-striping"].movement_class == "full"
    assert not by_name["weighted-striping"].supports_scale_out
    assert by_name["redundant-share"].movement_class == "bounded"
    assert by_name["trivial"].movement_class == "proportional"
    # Lemma 2.4: trivial ignores capacities; everyone else adapts.
    assert not by_name["trivial"].heterogeneity_aware
    assert by_name["rpdp"].heterogeneity_aware


def test_option_schemas_expose_defaults_and_docs():
    entry = lookup("sequential-checking")
    specs = {spec.name: spec for spec in entry.options}
    assert set(specs) == {"generations", "overflow"}
    assert specs["overflow"].default == "wrap"
    assert all(spec.doc for spec in entry.options)
    assert lookup("trivial").options == ()


def test_single_copy_and_replication_share_the_batch_signature():
    # Every registered strategy takes the one-argument batch call; a
    # k = 1 build is the single-copy case of the same shape.
    for entry in registered_strategies():
        for copies in (1, 3):
            strategy = entry.build(BINS, copies)
            batch = strategy.place_many(range(8))
            assert batch.tuples() == [strategy.place(a) for a in range(8)]


def test_place_many_has_one_path_and_no_knob():
    # The batch entry point is ``(self, addresses)`` everywhere — no
    # worker count, no keyword that selects a second path — and no
    # replication strategy overrides the base class's driver.
    import inspect

    from repro.placement.base import ReplicationStrategy

    classes = [type(entry.build(BINS, 3)) for entry in registered_strategies()]
    assert len(classes) == len(strategy_names())
    for cls in classes:
        assert cls.place_many is ReplicationStrategy.place_many, cls
        parameters = list(inspect.signature(cls.place_many).parameters)
        assert parameters == ["self", "addresses"], cls
    with pytest.raises(TypeError):
        create("redundant-share", BINS).place_many([1], workers=2)


def test_every_entry_builds_and_places():
    for entry in registered_strategies():
        strategy = entry.build(BINS, 3)
        placement = strategy.place(42)
        assert len(placement) == entry.effective_copies(3)
        assert len(set(placement)) == len(placement)
        batch = strategy.place_many(range(16))
        assert batch.tuples() == [
            strategy.place(address) for address in range(16)
        ]


def test_vectorized_flags_match_reality():
    # Entries flagged vectorized must implement the batch driver's engine
    # hook rather than inherit the generic loop (the bench's speedup gate
    # keys on it).
    from repro.placement.base import ReplicationStrategy

    generic = ReplicationStrategy._fill_ranks
    for entry in registered_strategies():
        strategy = entry.build(BINS, 3)
        has_engine = type(strategy)._fill_ranks is not generic
        assert has_engine == strategy._has_engine == entry.vectorized, entry.name


def test_build_strategy_shim_is_gone():
    import repro.placement as placement
    import repro.placement.registry as registry

    assert not hasattr(registry, "build_strategy")
    assert not hasattr(placement, "build_strategy")
    assert "build_strategy" not in placement.__all__


def test_precompute_cache_and_cluster_epoch_are_gone():
    from repro.cluster import Cluster

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.placement.precompute")
    assert not hasattr(Cluster, "epoch")
