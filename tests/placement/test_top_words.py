"""The top 1 024 hash words: draws stay below 1 on both legs.

``float(u)`` rounds every word from ``2**64 - 1024`` up to ``2**64``, so
``u * 2**-64`` would be 1.0 — outside the ``[0, 1)`` / ``(0, 1)`` the
unit mappings promise.  A log of it is 0 (a division by zero in every
rendezvous score) and a table lookup of it is out of range.  These
words map to ``1 - 2**-53`` instead.  Each address below is *crafted*
to draw such a word where a strategy consults it (SplitMix64 inverted,
or for a string-keyed draw a fold found once by a lattice search); every
strategy must place it, in batch exactly as in the scalar loop, with no
exception and no warning.
"""

import warnings

import pytest

import repro._compat as compat
from repro.core import FastRedundantShare
from repro.core.classic import ClassicLinMirror
from repro.hashing import primitives
from repro.hashing.primitives import derive_base, stable_u64
from repro.placement import WeightedRendezvous
from repro.placement.trivial import TrivialReplication
from repro.types import bins_from_capacities

from ..splitmix_inverse import address_for_word

BELOW_ONE = 1.0 - 2.0**-53
#: The first is the last word whose own float is below 1 (it already
#: maps to ``1 - 2**-53``); the others are top words.
TOP_WORDS = [2**64 - 1025, 2**64 - 1024, 2**64 - 513, 2**64 - 1]

#: Clips to [2, 1, 1]: the primary is always rank 0 and the secondary
#: comes from the ``placeonecopy`` selector over ``bin-1`` / ``bin-2``
#: under the namespace ``classic-lin-mirror/sec/0``.
OVERSIZED = bins_from_capacities([1000, 1, 1])

#: ``stable_u64("classic-lin-mirror/sec/0", "ball", STRING_KEYED_ADDRESS)``
#: is ``2**64 - 481``: the string-keyed draw of this address is a top word.
STRING_KEYED_ADDRESS = 13883458474726122446


def settled(strategy, addresses):
    """``place_many`` and the scalar loop, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = strategy.place_many(addresses).tuples()
        scalar = [strategy.place(address) for address in addresses]
    assert batch == scalar
    return scalar


@pytest.mark.parametrize("word", TOP_WORDS)
def test_unit_mappings_stay_below_one(word):
    base = 0x5EED
    address = address_for_word(base, word)
    assert primitives.unit_from_base(base, address) == BELOW_ONE
    assert primitives.unit_from_base_open(base, address) == BELOW_ONE
    if compat.HAVE_NUMPY:
        assert primitives.units_from_base(base, [address]).tolist() == [
            BELOW_ONE
        ]


def test_string_keyed_draws_stay_below_one():
    parts = ("classic-lin-mirror/sec/0", "ball", STRING_KEYED_ADDRESS)
    assert stable_u64(*parts) == 2**64 - 481
    assert primitives.unit_interval(*parts) == BELOW_ONE
    assert primitives.unit_interval_open(*parts) == BELOW_ONE


@pytest.mark.parametrize("leg", ["numpy", "pure"])
def test_trivial_places_a_top_word(leg, monkeypatch):
    if leg == "pure":
        monkeypatch.setattr(compat, "np", None)
    elif not compat.HAVE_NUMPY:
        pytest.skip("NumPy unavailable")
    strategy = TrivialReplication(
        bins_from_capacities([5, 4, 3, 2, 2, 1], prefix="store"), copies=3
    )
    base = derive_base("trivial", "draw", 0, "store-5")
    addresses = [address_for_word(base, word) for word in TOP_WORDS]
    for placement in settled(strategy, addresses):
        # The top word is the best possible rendezvous draw.
        assert placement[0] == "store-5"


def test_weighted_rendezvous_places_a_top_word():
    base = derive_base("classic-lin-mirror/sec/0", "bin-2")
    addresses = [address_for_word(base, word) for word in TOP_WORDS]
    placer = WeightedRendezvous(
        ["bin-1", "bin-2"], [1.0, 1.0], "classic-lin-mirror/sec/0"
    )
    assert [placer.place(address) for address in addresses] == ["bin-2"] * 4
    # The same race inside the classic LinMirror batch engine.
    strategy = ClassicLinMirror(OVERSIZED)
    assert settled(strategy, addresses) == [("bin-0", "bin-2")] * 4


def test_fast_redundant_share_places_a_top_word():
    strategy = FastRedundantShare(
        bins_from_capacities([5, 4, 3, 2, 2, 1]), copies=2
    )
    base = derive_base("fast-redundant-share", "state", 0, "root")
    addresses = [address_for_word(base, word) for word in TOP_WORDS]
    for placement in settled(strategy, addresses):
        # The largest draw lands on the last rank copy 0 can reach.
        assert placement[0] == "bin-4"
