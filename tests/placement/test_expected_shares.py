"""Every strategy's ``expected_shares()`` against what it places.

Per bin, the number of addresses whose placement includes it is
Binomial(addresses, k · share): a G-test of the two cells (in, out) per
bin at family-wise level ``ALPHA``, Bonferroni over the bins, on a fixed
seeded sample of 64-bit addresses, so each verdict is deterministic.
Every registry entry runs on three fleets, and the two
rack-aware strategies on one rack layout at k = 2 and 3; both legs run,
the pure one on a smaller sample.  The shares must also cover every bin
and sum to 1.
"""

import random
from functools import partial

import pytest

import repro._compat as compat
from repro.core import HierarchicalRedundantShare
from repro.placement import (
    ChooseleafCrush,
    ReplicationStrategy,
    WeightedStripingStrategy,
    create,
    strategy_names,
)
from repro.types import bins_from_capacities

from ..oracles import g_test_p_value

ALPHA = 1e-3
#: Sample size per leg: the scalar loop places about 25x slower.
ADDRESSES = {"numpy": 100_000, "pure-python": 2_000}
#: Sample cap for a strategy without a batch engine, which runs the
#: scalar loop on both legs (``crush-chooseleaf`` at ~150 us an address).
SCALAR_ADDRESSES = 10_000
#: ``(capacities, copies)``: a 40-device fleet with a 41:1 capacity
#: spread, a fleet whose largest bin is pinned at k = 2, and the TAB-FUT
#: fleet of ``benchmarks/bench_table_future_work.py``.
FLEETS = {
    "geometric": ([round(50 * 1.1**i) for i in range(40)], 3),
    "pinned": ([1000, 400, 300, 200, 100], 2),
    "tab-fut": ([800, 700, 600, 500, 400, 300], 2),
}
#: Four failure domains of unequal size and capacity.
RACKS = {
    f"rack-{rack}": bins_from_capacities(capacities, prefix=f"r{rack}")
    for rack, capacities in enumerate(
        ([900, 300], [500, 400, 100], [600], [250, 250, 200, 100])
    )
}


def on_fleet(factory, fleet):
    capacities, copies = FLEETS[fleet]
    return factory(bins_from_capacities(capacities), copies=copies)


#: case -> zero-argument factory of the strategy under test.
CASES = {
    f"{name}-{fleet}": partial(on_fleet, partial(create, name), fleet)
    for name in strategy_names()
    for fleet in FLEETS
}
CASES.update(
    (f"{cls.name}-racks-k{copies}", partial(cls, RACKS, copies=copies))
    for cls in (ChooseleafCrush, HierarchicalRedundantShare)
    for copies in (2, 3)
)


def on_leg(monkeypatch, leg):
    if leg == "pure-python":
        monkeypatch.setattr(compat, "np", None)
    elif not compat.HAVE_NUMPY:
        pytest.skip("NumPy unavailable")


def sample(leg):
    rng = random.Random(36)
    return [rng.randrange(2**64) for _ in range(ADDRESSES[leg])]


@pytest.mark.parametrize("leg", ["numpy", "pure-python"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_placements_follow_expected_shares(monkeypatch, case, leg):
    on_leg(monkeypatch, leg)
    strategy = CASES[case]()
    shares = strategy.expected_shares()
    assert set(shares) == set(strategy.rank_ids)
    assert abs(sum(shares.values()) - 1.0) <= 1e-12
    addresses = sample(leg)[: None if strategy._has_engine else SCALAR_ADDRESSES]
    counts = strategy.place_many(addresses).counts()
    for bin_id, share in shares.items():
        hits, pi = counts.get(bin_id, 0), strategy.copies * share
        p_value = g_test_p_value([hits, len(addresses) - hits], [pi, 1.0 - pi])
        assert p_value > ALPHA / len(shares), (bin_id, hits, pi, p_value)


def test_every_strategy_class_is_covered():
    """Each concrete ``ReplicationStrategy`` of the library has a case."""
    pending, found = [ReplicationStrategy], set()
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro."):
                found.add(cls)
    covered = {type(build()) for build in CASES.values()}
    assert found == covered


@pytest.mark.parametrize("leg", ["numpy", "pure-python"])
@pytest.mark.parametrize(
    "capacities, copies",
    [(FLEETS["tab-fut"][0], 2), (list(range(500, 2001, 100)), 3)],
    ids=["tab-fut", "e2e-bench"],
)
def test_weighted_striping_full_period_is_exact(
    monkeypatch, leg, capacities, copies
):
    """Over ``L`` consecutive addresses every reachable start slot is hit
    equally often, so the copy counts give the shares exactly."""
    on_leg(monkeypatch, leg)
    strategy = WeightedStripingStrategy(
        bins_from_capacities(capacities), copies=copies
    )
    length = strategy.pattern_length
    counts = strategy.place_many(range(length)).counts()
    assert {
        bin_id: counts.get(bin_id, 0) / (copies * length)
        for bin_id in strategy.rank_ids
    } == strategy.expected_shares()
