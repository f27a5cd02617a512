"""Placement pins for the ``placeonecopy`` selectors and what composes them.

Every selector, and every strategy that takes one as a backend, is a pure
function of its ids, weights, namespace and the ball address.  The SHA-256
digests below were computed before the ``BinSpec``-faced single-copy
classes were folded into the ``(ids, weights, namespace)`` interface, on
both legs; a moved salt, weight conversion, tie rule or namespace fails
here.
"""

import hashlib

import pytest

import repro._compat as compat
from repro.core import ClassicLinMirror, FastRedundantShare
from repro.placement import (
    AliasWeightedPlacer,
    ConsistentHashingPlacer,
    RingWeightedPlacer,
    ShareWeightedPlacer,
    WeightedRendezvous,
)
from repro.types import bins_from_capacities

#: Weight vectors for the bare selectors: heterogeneous, a zero weight,
#: homogeneous, one dominant id.
WEIGHTS = [
    [5, 4, 3, 2, 1],
    [900, 0, 700, 500, 300, 200],
    [1] * 8,
    [1000, 1, 1],
]
#: Fleets for the composites: the same shapes without the zero, plus the
#: two boundary-boost vectors of ``ClassicLinMirror``'s tests.
FLEETS = [
    [5, 4, 3, 2, 1],
    [900, 700, 500, 300, 200],
    [1] * 8,
    [1000, 1, 1],
    [4, 4, 3],
    [10, 10, 1],
]
NAMESPACES = ["", "pin/ns"]
ADDRESSES = list(range(-3, 250)) + [2**63, 2**64 - 1]


def _ids(weights):
    return [f"bin-{index}" for index in range(len(weights))]


def _selectors(cls):
    return [
        cls(_ids(weights), [float(w) for w in weights], namespace)
        for weights in WEIGHTS
        for namespace in NAMESPACES
    ]


def _selector_rows(cls):
    return [
        placer.place(a) for placer in _selectors(cls) for a in ADDRESSES
    ]


def _top_rows():
    return [
        tuple(placer.top(a, 3))
        for placer in _selectors(WeightedRendezvous)
        for a in ADDRESSES
    ]


def _successor_rows():
    rows = []
    for capacities in FLEETS:
        for namespace in NAMESPACES:
            placer = ConsistentHashingPlacer(
                bins_from_capacities(capacities), namespace=namespace
            )
            rows += [
                (placer.place(a), tuple(placer.place_successors(a, 3)))
                for a in ADDRESSES
            ]
    return rows


def _classic_rows(backend):
    return [
        ClassicLinMirror(
            bins_from_capacities(capacities),
            namespace=namespace,
            placer_factory=backend,
        ).place_many(ADDRESSES).tuples()
        for capacities in FLEETS
        for namespace in NAMESPACES
    ]


def _fast_rows(selector):
    return [
        FastRedundantShare(
            bins_from_capacities(capacities),
            copies=copies,
            namespace=namespace,
            state_selector=selector,
        ).place_many(ADDRESSES).tuples()
        for capacities in FLEETS
        for copies in (2, 3)
        for namespace in NAMESPACES
    ]


#: case -> (rows builder, sha256 of ``repr(rows)``)
CASES = {
    "rendezvous": (
        lambda: _selector_rows(WeightedRendezvous),
        "720472169dd9799d7a008a78b3275b9e"
        "a73afd7d3c9e7f78c975ed1ae153ead3",
    ),
    "alias": (
        lambda: _selector_rows(AliasWeightedPlacer),
        "2a50938cb7895d30a11316d21049a9c0"
        "0b4457bcd9f8a986fd397f3714a44dc8",
    ),
    "share": (
        lambda: _selector_rows(ShareWeightedPlacer),
        "0b3aa7389dfe0d111f360772becfd0ca"
        "70f305ab93be949ef4b0732c9779e23d",
    ),
    "ring": (
        lambda: _selector_rows(RingWeightedPlacer),
        "67466554b2fba4fa254244dbb5890496"
        "2f7d48714d30a3b7499b113e58dfef6d",
    ),
    "rendezvous-top": (
        _top_rows,
        "ebaafedb2c2b027330c790b525c249b1"
        "06e2d805e9d41dbdcb2495afdbeef1a3",
    ),
    "ring-successors": (
        _successor_rows,
        "138807dbba107c0b6ba80b02a370c8a2"
        "da9b04e580819b90366e91019e64b8b5",
    ),
    "classic-rendezvous": (
        lambda: _classic_rows(WeightedRendezvous),
        "8905b8bed6f7f31c5284736dccf80f00"
        "adf768013a4427a4fb0b646bfba12953",
    ),
    "classic-alias": (
        lambda: _classic_rows(AliasWeightedPlacer),
        "cae52b5a7796041bc0455b946bffee59"
        "37fd1deff599c95d04c4e1e1e9f45d01",
    ),
    "classic-ring": (
        lambda: _classic_rows(RingWeightedPlacer),
        "dacdc7c79a507189645a7fcad74b73e1"
        "db66534b200c0307271d9325c9445b7f",
    ),
    "fast-cdf": (
        lambda: _fast_rows("cdf"),
        "37da033abbdf6cf08574caf735e9d839"
        "bf8c85e115a2a65cee2e79e18c25bef8",
    ),
    "fast-rendezvous": (
        lambda: _fast_rows("rendezvous"),
        "1611ca251ee4109f2f4a62e77f0db759"
        "957a15fb780c0aedcc8d953f1ba61932",
    ),
    "fast-share": (
        lambda: _fast_rows("share"),
        "f67b8bd68403546cd773a2201be14bd7"
        "ce88fdfd1021cc285f61be355ad74135",
    ),
}


def digest(case):
    """SHA-256 of the rows ``case`` produces, as hex."""
    rows, _ = CASES[case]
    return hashlib.sha256(repr(rows()).encode()).hexdigest()


@pytest.mark.parametrize("leg", ["numpy", "pure-python"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_placements_are_pinned(monkeypatch, case, leg):
    if leg == "pure-python":
        monkeypatch.setattr(compat, "np", None)
    assert digest(case) == CASES[case][1]
