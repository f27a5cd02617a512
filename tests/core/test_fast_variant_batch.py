"""FastRedundantShare batch engine: NumPy vs scalar vs pure-Python.

The Section 3.3 variant's vectorized ``place_many`` must be bit-identical
to the scalar O(k) lookup *and* to the pure-Python fallback leg, for any
configuration — both paths draw through the very same
:class:`~repro.hashing.alias.CumulativeTable` boundaries, so this pins
that the ``searchsorted`` gather of hash words over the boundaries'
word thresholds reproduces the table's binary search exactly, down to
words crafted onto each threshold.  Also covers the state tables: built
lazily by the first lookups, owned by the instance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro.core import FastRedundantShare
from repro.placement import kernels
from repro.types import bins_from_capacities

from ..splitmix_inverse import address_for_word

capacities_vectors = st.lists(
    st.integers(min_value=1, max_value=2_000), min_size=5, max_size=12
)
replication_degrees = st.integers(min_value=2, max_value=4)
namespaces = st.sampled_from(["", "ns-a", "tenant/7"])
address_lists = st.lists(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    min_size=1,
    max_size=64,
)


def scalar_rows(strategy, addresses):
    return [strategy.place(address) for address in addresses]


class TestBatchEquivalence:
    @given(
        capacities=capacities_vectors,
        copies=replication_degrees,
        namespace=namespaces,
        addresses=address_lists,
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar(
        self, capacities, copies, namespace, addresses
    ):
        strategy = FastRedundantShare(
            bins_from_capacities(capacities), copies=copies,
            namespace=namespace,
        )
        batch = strategy.place_many(addresses)
        assert [tuple(row) for row in batch.tuples()] == scalar_rows(
            strategy, addresses
        )

    @given(
        capacities=capacities_vectors,
        copies=replication_degrees,
        namespace=namespaces,
        addresses=address_lists,
    )
    @settings(max_examples=40, deadline=None)
    def test_numpy_leg_matches_pure_python_leg(
        self, capacities, copies, namespace, addresses
    ):
        bins = bins_from_capacities(capacities)

        def run_leg():
            strategy = FastRedundantShare(
                bins, copies=copies, namespace=namespace
            )
            return [
                tuple(row)
                for row in strategy.place_many(addresses).tuples()
            ]

        numpy_rows = run_leg()
        saved = compat.np
        compat.np = None
        try:
            pure_rows = run_leg()
        finally:
            compat.np = saved
        assert numpy_rows == pure_rows

    @pytest.mark.skipif(compat.np is None, reason="thresholds need NumPy")
    @pytest.mark.parametrize(
        "capacities, copies",
        [([120, 80, 200, 40, 160, 90], 3), ([1000, 5, 4, 3, 3, 1], 2)],
    )
    def test_gather_boundary_words(self, capacities, copies):
        """For every sampled state, addresses crafted to draw the words
        just below and at each boundary's threshold, and the two extreme
        words: the gather places them as ``place``'s binary search does."""
        strategy = FastRedundantShare(
            bins_from_capacities(capacities), copies=copies
        )
        crafted = []  # (address, copy, previous rank)
        for copy in range(copies):
            # The states copy ``copy`` can be placed from.
            previous_ranks = range(
                copy - 1, len(capacities) - copies + copy if copy else 0
            )
            for previous in previous_ranks:
                table = strategy._state_table(copy, previous)
                if isinstance(table, int):
                    continue  # a forced state draws nothing
                base = strategy._state_base(copy, previous)
                words = {0, 2**64 - 1}
                for threshold in kernels.word_thresholds(
                    [b for b in table.boundaries() if b < 1.0]
                ):
                    words |= {int(threshold) - 1, int(threshold)}
                crafted += [
                    (address_for_word(base, word), copy, previous)
                    for word in sorted(words)
                ]
        addresses = [address for address, _, _ in crafted]
        expected = scalar_rows(strategy, addresses)
        assert strategy.place_many(addresses).tuples() == expected
        ids = strategy.rank_ids
        visited = sum(
            ([-1] + [ids.index(bin_id) for bin_id in row])[copy] == previous
            for (_, copy, previous), row in zip(crafted, expected)
        )
        # Every address visits the root state, whose words come first.
        assert visited > sum(copy == 0 for _, copy, _ in crafted)


class TestPrecomputeBundle:
    BINS = bins_from_capacities([120, 80, 200, 40, 160, 90])

    def test_lazy_until_first_batch(self):
        strategy = FastRedundantShare(self.BINS, copies=3)
        assert strategy.state_count() == 0
        assert not strategy._np_states
        strategy.place_many(range(32))
        assert strategy.state_count() > 0
        if compat.np is not None:
            assert strategy._np_states

    def test_instances_share_no_state(self):
        warm = FastRedundantShare(self.BINS, copies=3)
        cold = FastRedundantShare(self.BINS, copies=3)
        warm.place_many(range(64))
        assert cold.state_count() == 0
        assert not cold._np_states
        for strategy in (warm, cold):
            assert strategy.place_many(range(64)).tuples() == [
                strategy.place(address) for address in range(64)
            ]
