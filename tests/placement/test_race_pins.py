"""Placement pins for the six score-race engines.

``trivial``, ``rpdp``, ``sequential-checking``, ``balanced-rendezvous``,
``classic-lin-mirror`` (its secondary race) and ``crush`` settle every
copy with a ``-w / ln(u)`` or ``ln(u) / w`` race.  The SHA-256 digests
below were computed with the address-major race kernels, on both legs;
the bins-major kernels must reproduce every placement, on the benchmark
fleet, a wide one (several cell blocks per batch) and a clipped one.
``balanced-rendezvous``'s three were pinned again when its weights became
the exact fit of the race's inclusion probabilities (the default build).

The guard pin crafts fleets on which chosen addresses are near-ties
between two bins, so the tie guard must refuse exactly those rows.
"""

import hashlib
import itertools
import math
import random

import pytest

import repro._compat as compat
from repro import obs
from repro.core import BalancedRendezvous, ClassicLinMirror, balanced_rendezvous
from repro.hashing.primitives import derive_base, unit_from_base_open
from repro.placement.crush import CrushStrategy
from repro.placement.registry import create
from repro.placement.trivial import TrivialReplication
from repro.types import bins_from_capacities

#: fleet -> (capacities, copies); ``classic-lin-mirror`` is k = 2 always.
FLEETS = {
    "bench": (list(range(500, 2001, 100)), 3),
    "wide": ([1000 + index % 7 for index in range(200)], 3),
    "clipped": ([5000, 900, 300, 40, 30, 20, 10, 5], 2),
}
_rng = random.Random(29)
ADDRESSES = (
    list(range(-3, 300))
    + [2**63, 2**64 - 1]
    + [_rng.randrange(2**64) for _ in range(300)]
)


def build(engine, fleet):
    capacities, copies = FLEETS[fleet]
    bins = bins_from_capacities(capacities)
    if engine == "classic-lin-mirror":
        return ClassicLinMirror(bins)
    return create(engine, bins, copies=copies)


#: (engine, fleet) -> sha256 of ``repr(place_many(ADDRESSES).tuples())``
PINS = {
    ("trivial", "bench"): (
        "a7eca5b1bad7274a06fcdb8f919af51c"
        "cc164ec6298674b1878255d103ddaa55"
    ),
    ("trivial", "wide"): (
        "1e3819f2f18ca8f97f0cdc8b1c514afa"
        "65de3386d6e98b150eb8f3cd516de2d9"
    ),
    ("trivial", "clipped"): (
        "a1d9efb30f7cb40aeb6baded4975ffdd"
        "5f5dff8abf891966ebd87451cf3dfabc"
    ),
    ("rpdp", "bench"): (
        "e5178d2f52281d297b9b7709174df08f"
        "4ee8f6c1668bb924d51b412a1d958342"
    ),
    ("rpdp", "wide"): (
        "718d6f5d0e415be0b02e6f0bf82ede56"
        "242d3feff3c2ba73ab1069688f8b4370"
    ),
    ("rpdp", "clipped"): (
        "39bc3166484a2fa90a8d71f05efe7a14"
        "863f1716ff64d4e8a85ba33e34c682e6"
    ),
    ("sequential-checking", "bench"): (
        "2539845fe6cb08d3d7910a7411fd7ce1"
        "cf8a9bcccef593ea689e27d666c29cdb"
    ),
    ("sequential-checking", "wide"): (
        "9545bd88e5aaa8ddd9c07624af61b843"
        "d62b738a876394becfd4be73de1fb149"
    ),
    ("sequential-checking", "clipped"): (
        "7e71ea6eace4293f6c7bf682b8f87530"
        "085afd89cac964405ec47b1020b94d11"
    ),
    ("balanced-rendezvous", "bench"): (
        "243d7c7a66c8e912f41fd082921d1970"
        "9b5ef251c6ab65c90af383a1e1675547"
    ),
    ("balanced-rendezvous", "wide"): (
        "21571da1270deb0cbe83e76bff204963"
        "71264e466a10094933d019b09f03ff2e"
    ),
    ("balanced-rendezvous", "clipped"): (
        "ba3d98ed5605eadf40f231af75920785"
        "785719c09acc83753d6a90e6e2282e4c"
    ),
    ("classic-lin-mirror", "bench"): (
        "8ef3e325ab98910d2edc266936561c0c"
        "ec873ce068afb7bef019f7b00469e03c"
    ),
    ("classic-lin-mirror", "wide"): (
        "812db21c02607edfd296b0bf8736d41e"
        "eeb2486bcedd20f7a0ca2062747b1402"
    ),
    ("classic-lin-mirror", "clipped"): (
        "6f27a247b226d5ec842662dc2bf3d2be"
        "85c627dc5b30345cc5459fb7255a93b0"
    ),
    ("crush", "bench"): (
        "6be807a509b1ddb7d4a8353cc905cabb"
        "090becc0fc6af18849390d230755f804"
    ),
    ("crush", "wide"): (
        "fb8f6961649a4a62a17e2ac589612daf"
        "60be8f7c879c2b43572eec3d23d0b0a1"
    ),
    ("crush", "clipped"): (
        "57c05430ea77adeafd558a7e9b4fe61c"
        "c1d3f70a71ff32e1450c8a5260e9b132"
    ),
}


@pytest.mark.parametrize("leg", ["numpy", "pure-python"])
@pytest.mark.parametrize(
    "engine, fleet", sorted(PINS), ids=["-".join(key) for key in sorted(PINS)]
)
def test_placements_are_pinned(monkeypatch, engine, fleet, leg):
    if leg == "pure-python":
        monkeypatch.setattr(compat, "np", None)
    rows = build(engine, fleet).place_many(ADDRESSES).tuples()
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINS[
        (engine, fleet)
    ]


# ----------------------------------------------------------------------
# Near-ties
# ----------------------------------------------------------------------

#: Bins per crafted fleet; every bin but the first ties it once.
TIE_BINS = 6


def exponent(base, address, *salts):
    """``-ln(u)`` of one race draw: a bin scores ``w / E`` in a
    rendezvous race and ``-E / w`` in a straw2 race, so both are won by
    the largest ``w / E``."""
    return -math.log(unit_from_base_open(base, address, *salts))


#: engine -> (strategy class, draw-0 base of a bin id, extra draw salts)
TIE_ENGINES = {
    "trivial": (
        TrivialReplication,
        lambda bin_id: derive_base("trivial", "draw", 0, bin_id), (),
    ),
    "crush": (
        CrushStrategy,
        lambda bin_id: derive_base("crush", "crush/root", bin_id), (0, 0),
    ),
    "balanced-rendezvous": (
        BalancedRendezvous,
        lambda bin_id: derive_base("balanced-rendezvous", "race", bin_id), (),
    ),
}


def near_tie_fleet(base_of, salts):
    """Capacities and addresses such that at ``addresses[j - 1]`` bins 0
    and ``j`` lead the race with equal ``w / E`` (up to rounding).

    Bin 0 weighs 1 000; bin ``j`` weighs ``1 000 · E_j / E_0`` at an
    address where that ratio is within 10 % of 1 and bin 0's ``E`` is
    below 0.8 of every other bin's, so no third bin can lead there
    whatever its (also near-1 000) weight.
    """
    bases = [base_of(f"bin-{index}") for index in range(TIE_BINS)]
    capacities, addresses = [1000.0], []
    candidates = itertools.count(1)
    for bin_ in range(1, TIE_BINS):
        for address in candidates:
            draws = [exponent(base, address, *salts) for base in bases]
            others = [e for i, e in enumerate(draws) if i not in (0, bin_)]
            ratio = draws[bin_] / draws[0]
            if 0.9 <= ratio <= 1.1 and draws[0] < 0.8 * min(others):
                capacities.append(1000.0 * ratio)
                addresses.append(address)
                break
    return capacities, addresses


@pytest.mark.skipif(not compat.HAVE_NUMPY, reason="the guard is NumPy-only")
@pytest.mark.parametrize("engine", sorted(TIE_ENGINES))
def test_guard_refuses_exactly_the_crafted_near_ties(monkeypatch, engine):
    # ``balanced-rendezvous`` races its raw targets, so the crafted weight
    # ratios are the race's.
    monkeypatch.setattr(
        balanced_rendezvous, "fit_weights", lambda targets, copies: targets
    )
    factory, base_of, salts = TIE_ENGINES[engine]
    capacities, crafted = near_tie_fleet(base_of, salts)
    strategy = factory(bins_from_capacities(capacities), 1)
    addresses = crafted + list(range(10_000, 12_000))
    with obs.capture():
        batch = strategy.place_many(addresses)
        counters = obs.metrics().snapshot()["counters"]
    obs.reset_metrics()
    assert batch.tuples() == [strategy.place(a) for a in addresses]
    assert counters[
        f"placement.kernel.{strategy.kernel}.tie_recomputes"
    ] == len(crafted)
