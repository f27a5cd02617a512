"""Placement pins for the ``placeonecopy`` selector and what composes it.

The selector, the ring and the strategies built on them are pure
functions of their ids, weights, namespace and the ball address.  The
SHA-256 digests below were computed before the ``BinSpec``-faced
single-copy classes were folded into the ``(ids, weights, namespace)``
interface, on both legs; a moved salt, weight conversion, tie rule or
namespace fails here.
"""

import hashlib

import pytest

import repro._compat as compat
from repro.core import ClassicLinMirror, FastRedundantShare
from repro.placement import ConsistentHashingPlacer, WeightedRendezvous
from repro.types import bins_from_capacities

#: Weight vectors for the bare selector: heterogeneous, a zero weight,
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


def _selectors():
    return [
        WeightedRendezvous(
            _ids(weights), [float(w) for w in weights], namespace
        )
        for weights in WEIGHTS
        for namespace in NAMESPACES
    ]


def _selector_rows():
    return [placer.place(a) for placer in _selectors() for a in ADDRESSES]


def _top_rows():
    return [
        tuple(placer.top(a, 3)) for placer in _selectors() for a in ADDRESSES
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


def _classic_rows():
    return [
        ClassicLinMirror(
            bins_from_capacities(capacities), namespace=namespace
        ).place_many(ADDRESSES).tuples()
        for capacities in FLEETS
        for namespace in NAMESPACES
    ]


def _fast_rows():
    return [
        FastRedundantShare(
            bins_from_capacities(capacities),
            copies=copies,
            namespace=namespace,
        ).place_many(ADDRESSES).tuples()
        for capacities in FLEETS
        for copies in (2, 3)
        for namespace in NAMESPACES
    ]


#: case -> (rows builder, sha256 of ``repr(rows)``)
CASES = {
    "rendezvous": (
        _selector_rows,
        "720472169dd9799d7a008a78b3275b9e"
        "a73afd7d3c9e7f78c975ed1ae153ead3",
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
        _classic_rows,
        "8905b8bed6f7f31c5284736dccf80f00"
        "adf768013a4427a4fb0b646bfba12953",
    ),
    "fast-cdf": (
        _fast_rows,
        "37da033abbdf6cf08574caf735e9d839"
        "bf8c85e115a2a65cee2e79e18c25bef8",
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
