"""Event-bus move counts must agree with the adaptivity metrics.

The observability layer and ``metrics/adaptivity.py`` count the same
physical quantity from opposite ends: the trace counters tally shares as
``migrate`` moves them, while ``compare_strategies`` predicts the
positional diff between the two configuration snapshots.  If they ever
disagree, one of the two books is cooked.
"""

import pytest

from repro import obs
from repro.cluster import Cluster, Rebalancer
from repro.core import RedundantShare
from repro.metrics import compare_strategies
from repro.types import BinSpec, bins_from_capacities

BLOCKS = 60


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def build_cluster(copies):
    # Enough devices for k=4 plus headroom to survive a removal.
    bins = bins_from_capacities([90, 80, 70, 60, 50, 40], prefix="dev")
    cluster = Cluster(bins, lambda b: RedundantShare(b, copies=copies))
    for address in range(BLOCKS):
        cluster.write(address, bytes([address % 251]) * 2)
    return cluster


@pytest.mark.parametrize("copies", [2, 4])
class TestAddDevice:
    def test_rebalancer_counter_matches_compare_strategies(self, copies):
        cluster = build_cluster(copies)
        before = cluster.strategy
        with obs.capture() as trace:
            cluster.add_device(BinSpec("dev-new", 85), rebalance=False)
            progress = Rebalancer(cluster).run_to_completion(step_size=9)
        predicted = compare_strategies(
            before,
            cluster.strategy,
            range(BLOCKS),
            affected_bins=["dev-new"],
        )
        counters = obs.metrics().counters()
        assert counters["rebalance.moved_shares"] == predicted.moved_positional
        assert progress.moved_shares == predicted.moved_positional
        done = trace.of_kind("rebalance.done")[0].fields
        assert done["moved_shares"] == predicted.moved_positional

    def test_eager_add_migration_event_matches(self, copies):
        cluster = build_cluster(copies)
        before = cluster.strategy
        with obs.capture() as trace:
            cluster.add_device(BinSpec("dev-new", 85))
        predicted = compare_strategies(
            before,
            cluster.strategy,
            range(BLOCKS),
            affected_bins=["dev-new"],
        )
        migration = trace.of_kind("cluster.migration")[0].fields
        assert migration["trigger"] == "add"
        assert migration["moved"] == predicted.moved_positional
        assert (
            obs.metrics().counters()["cluster.moved_shares"]
            == predicted.moved_positional
        )


@pytest.mark.parametrize("copies", [2, 4])
class TestRemoveDevice:
    def test_migration_event_matches_compare_strategies(self, copies):
        cluster = build_cluster(copies)
        before = cluster.strategy
        with obs.capture() as trace:
            report = cluster.remove_device("dev-2")
        predicted = compare_strategies(
            before,
            cluster.strategy,
            range(BLOCKS),
            affected_bins=["dev-2"],
        )
        migration = trace.of_kind("cluster.migration")[0].fields
        assert migration["trigger"] == "remove"
        assert migration["moved"] + migration["rebuilt"] == (
            predicted.moved_positional
        )
        assert report.moved_shares == migration["moved"]
        removed = trace.of_kind("device.removed")[0].fields
        assert removed["device"] == "dev-2"
