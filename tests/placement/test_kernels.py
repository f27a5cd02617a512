"""The shared vectorized kernel library, pinned against the scalar pipeline.

Every kernel in :mod:`repro.placement.kernels` promises element-wise
equality with a scalar reference (the ``u64_from_base`` hash chain, the
``-w / ln(u)`` and ``ln(u) / w`` score expressions, the strict-``>``
races, :meth:`CumulativeTable.select`).  These tests pin that promise
directly — the scalar expression is the only oracle; the kernels are
NumPy-only — plus the edge cases every porting strategy leans on: empty
batches, single-bin races, full-width (k == n) top-k races, and the
guard's behaviour on exact and sub-ulp ties.  Race matrices are
bins-major: one row per bin, one column per address.  The hash pipeline is
bit-exact; the *score* matrices are pinned to 1e-12 — NumPy's SIMD
``log`` may differ from ``math.log`` by 1 ulp, which is precisely what
:data:`~repro.placement.kernels.TIE_GUARD` exists to absorb.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro._compat import HAVE_NUMPY, get_numpy
from repro.hashing.alias import CumulativeTable
from repro.hashing.primitives import (
    u64_from_base,
    unit_from_base,
    unit_from_base_open,
)
from repro.placement import kernels
from repro.placement.registry import create
from repro.placement.rendezvous import rendezvous_score
from repro.types import bins_from_capacities

from ..splitmix_inverse import address_for_word, base_for_word

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the matrix kernels are NumPy-only"
)

addresses_lists = st.lists(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    min_size=0,
    max_size=40,
)
bases_lists = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8
)
salts = st.integers(min_value=0, max_value=2**32)


def as_columns(matrix):
    """A bins-major ``(bins × addresses)`` kernel result as one Python
    list per address."""
    return [list(column) for column in matrix.T.tolist()]


def bins_major(columns):
    """One list of per-bin scores per address, as the bins-major
    ``float64`` matrix the races consume."""
    np = get_numpy()
    return np.asarray(columns, dtype=np.float64).T.copy()


@needs_numpy
class TestHashPipeline:
    @given(addresses=addresses_lists, bases=bases_lists)
    @settings(max_examples=50, deadline=None)
    def test_open_draw_matrix_matches_scalar(self, addresses, bases):
        mixed = kernels.premix(addresses)
        matrix = kernels.open_draw_matrix(bases, mixed)
        assert as_columns(matrix) == [
            [unit_from_base_open(base, address) for base in bases]
            for address in addresses
        ]

    @given(addresses=addresses_lists, base=st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_words_match_scalar_u64(self, addresses, base):
        mixed = kernels.premix(addresses)
        expected = [u64_from_base(base, address) for address in addresses]
        words = kernels.words_from_premixed(base, mixed)
        assert [int(word) for word in words] == expected
        # One base per address, mixed in caller-owned buffers.
        np = get_numpy()
        bases = np.full(len(addresses), base, dtype=np.uint64)
        scratch = np.empty_like(bases)
        kernels.words_from_premixed(bases, mixed, out=bases, scratch=scratch)
        assert [int(word) for word in bases] == expected

    @given(
        addresses=addresses_lists,
        bases=bases_lists,
        replica=salts,
        attempt=salts,
    )
    @settings(max_examples=50, deadline=None)
    def test_fold_chain_matches_multivalue_u64(
        self, addresses, bases, replica, attempt
    ):
        # state_matrix → fold_salt ×2 → open_draws_from_state is exactly
        # unit_from_base_open(base, address, replica, attempt) — the
        # CRUSH straw pipeline.
        mixed = kernels.premix(addresses)
        states = kernels.fold_salt(
            kernels.fold_salt(kernels.state_matrix(bases, mixed), replica),
            attempt,
        )
        draws = kernels.open_draws_from_state(states)
        assert as_columns(draws) == [
            [
                unit_from_base_open(base, address, replica, attempt)
                for base in bases
            ]
            for address in addresses
        ]


@needs_numpy
class TestScoreMatrices:
    WEIGHTS = [3.0, 1.0, 0.25]
    UNIFORMS = [[0.5, 0.9, 0.1], [0.999, 0.001, 0.42]]

    def test_hrw_scores_match_scalar_expression(self):
        scores = kernels.hrw_score_matrix(
            self.WEIGHTS, bins_major(self.UNIFORMS)
        )
        for row, uniforms in zip(as_columns(scores), self.UNIFORMS):
            assert row == pytest.approx(
                [
                    -weight / math.log(uniform)
                    for weight, uniform in zip(self.WEIGHTS, uniforms)
                ],
                rel=1e-12,
            )

    def test_straw2_scores_match_scalar_expression(self):
        scores = kernels.straw2_score_matrix(
            self.WEIGHTS, bins_major(self.UNIFORMS)
        )
        for row, uniforms in zip(as_columns(scores), self.UNIFORMS):
            assert row == pytest.approx(
                [
                    math.log(uniform) / weight
                    for weight, uniform in zip(self.WEIGHTS, uniforms)
                ],
                rel=1e-12,
            )


@needs_numpy
class TestGuardedSelection:
    def test_argmax_first_index_and_consumption(self):
        scores = bins_major([[1.0, 5.0, 3.0], [9.0, 2.0, 8.0]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [1, 0]
        assert list(unsafe) == [False, False]
        # Winning entries were consumed: the next race yields runners-up.
        winners2, _ = kernels.argmax_with_guard(scores)
        assert list(winners2) == [2, 2]

    def test_exact_tie_is_unsafe(self):
        scores = bins_major([[2.0, 2.0, 1.0], [3.0, 1.0, 0.5]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [0, 0]  # first index on ties
        assert list(unsafe) == [True, False]

    def test_sub_guard_margin_is_unsafe(self):
        scores = bins_major([[2.0, 2.0 * (1.0 - 1e-12)]])
        _, unsafe = kernels.argmax_with_guard(scores)
        assert list(unsafe) == [True]
        scores = bins_major([[2.0, 2.0 * (1.0 - 1e-6)]])
        _, unsafe = kernels.argmax_with_guard(scores)
        assert list(unsafe) == [False]

    def test_negative_scores_use_absolute_margin(self):
        # straw2 scores are negative; the guard must still scale by |best|.
        scores = bins_major([[-2.0, -2.0 * (1.0 + 1e-12)]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [0]
        assert list(unsafe) == [True]

    def test_single_column_race_is_safe(self):
        # A single device (one row) can never tie with a runner-up.
        scores = bins_major([[0.5], [0.25]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [0, 0]
        assert list(unsafe) == [False, False]

    def test_empty_batch(self):
        scores = get_numpy().empty((3, 0), dtype=float)
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == []
        assert list(unsafe) == []

    def test_topk_full_width_orders_by_descending_score(self):
        # k == n: every column is drawn, in descending score order.
        scores = bins_major([[1.0, 3.0, 2.0]])
        winners, unsafe = kernels.topk_with_guard(scores, 3)
        assert [list(draw) for draw in winners] == [[1], [2], [0]]
        assert list(unsafe) == [False]

    @given(
        addresses=addresses_lists,
        weights=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=6
        ),
        draws=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_race_matches_scalar_skip_loop(
        self, addresses, weights, draws
    ):
        # Definition 2.3 as the trivial strategy's place() spells it:
        # per draw, the best rendezvous score among bins not yet taken.
        np = get_numpy()
        draw_bases = [
            [1_000_003 * (draw + 1) + 7919 * bin_ for bin_ in range(len(weights))]
            for draw in range(draws)
        ]
        winners, unsafe = kernels.masked_hrw_race(
            weights,
            [np.asarray(bases, dtype=np.uint64) for bases in draw_bases],
            kernels.premix(addresses),
        )
        assert winners.shape == (draws, len(addresses))
        for row, address in enumerate(addresses):
            if unsafe[row]:
                continue  # the driver settles these through place()
            taken = set()
            for draw in range(draws):
                best = max(
                    (bin_ for bin_ in range(len(weights)) if bin_ not in taken),
                    key=lambda bin_: rendezvous_score(
                        weights[bin_],
                        unit_from_base_open(draw_bases[draw][bin_], address),
                    ),
                )
                assert winners[draw, row] == best
                taken.add(best)


@needs_numpy
class TestWordThresholds:
    """``T(p)`` is pinned by the two floats around it: the word below it
    draws under ``p`` and ``T`` itself does not.  The draw is monotone in
    the word, so that pins ``T`` uniquely."""

    EDGES = [
        5e-324,  # the smallest subnormal
        2.0**-1022,
        2.0**-64,
        2.0**-64 * 1.5,
        2.0**-11,  # p * 2**64 == 2**53, the last exact word
        2.0**-11 * (1 + 2.0**-52),
        0.1,
        0.5,
        math.nextafter(0.5, 0.0),
        math.nextafter(0.5, 1.0),
        math.nextafter(1.0, 0.0),
    ]

    @staticmethod
    def assert_pinned(probability, threshold):
        assert 1 <= threshold <= 2**64 - 1
        assert float(threshold - 1) * 2.0**-64 < probability
        assert probability <= float(threshold) * 2.0**-64

    @pytest.mark.parametrize("probability", EDGES)
    def test_edges(self, probability):
        self.assert_pinned(probability, int(kernels.word_thresholds(probability)))

    @given(
        probability=st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_probability(self, probability):
        self.assert_pinned(probability, int(kernels.word_thresholds(probability)))

    def test_vector_is_elementwise_and_zero_never_draws(self):
        thresholds = kernels.word_thresholds([0.0] + self.EDGES)
        assert thresholds.dtype == get_numpy().uint64
        assert [int(t) for t in thresholds] == [0] + [
            int(kernels.word_thresholds(p)) for p in self.EDGES
        ]

    @pytest.mark.parametrize("probability", EDGES)
    def test_scalar_draws_agree_at_the_threshold(self, probability):
        # The words on either side, through the scalar unit mapping.
        threshold = int(kernels.word_thresholds(probability))
        below = address_for_word(77, threshold - 1)
        at = address_for_word(77, threshold)
        assert unit_from_base(77, below) < probability
        assert not unit_from_base(77, at) < probability


@needs_numpy
class TestCdfGather:
    @staticmethod
    def thresholds(table):
        return kernels.word_thresholds(
            [b for b in table.boundaries() if b < 1.0]
        )

    @given(
        masses=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=9
        ).filter(any),
        addresses=addresses_lists,
        base=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_table_select(self, masses, addresses, base):
        table = CumulativeTable(masses)
        words = kernels.words_from_premixed(base, kernels.premix(addresses))
        gathered = kernels.cdf_gather(self.thresholds(table), words)
        assert [int(value) for value in gathered] == [
            table.select(unit_from_base(base, address))
            for address in addresses
        ]

    def test_boundary_words_match_table_select(self):
        # Words exactly at and just below every threshold, and the two
        # extreme words.
        table = CumulativeTable([3.0, 0.0, 1e-9, 2.0, 5.0, 1e-300])
        thresholds = self.thresholds(table)
        words = [0, 2**64 - 1] + [
            int(t) + delta for t in thresholds for delta in (-1, 0)
        ]
        gathered = kernels.cdf_gather(
            thresholds, get_numpy().asarray(words, dtype=get_numpy().uint64)
        )
        assert [int(value) for value in gathered] == [
            table.select(unit_from_base(9, address_for_word(9, word)))
            for word in words
        ]

    def test_empty_batch(self):
        table = CumulativeTable([1.0, 2.0])
        thresholds = self.thresholds(table)
        assert list(kernels.cdf_gather(thresholds, [])) == []


@needs_numpy
class TestSequenceKernels:
    """The two kernels the read schedulers' batch engines draw on."""

    def test_draw_column_matches_scalar_draws(self):
        from repro.hashing.primitives import u64_from_base

        column = kernels.draw_column(12345, 7, 50)
        assert [int(draw) for draw in column] == [
            u64_from_base(12345, index) for index in range(7, 57)
        ]

    @given(
        values=st.lists(
            st.integers(min_value=-5, max_value=5), min_size=0, max_size=40
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cumcount_matches_dict_walk(self, values):
        np = get_numpy()
        seen = {}
        expected = []
        for value in values:
            expected.append(seen.get(value, 0))
            seen[value] = expected[-1] + 1
        got = kernels.cumcount(np.asarray(values, dtype=np.int64))
        assert got.tolist() == expected


class TestBernoulliIndices:
    """The fleet engine's failure draw, on both legs: row ``r`` selects
    every index ``i`` with ``unit_from_base(bases[r], i) < p``."""

    @staticmethod
    def drawn(leg, monkeypatch, bases, count, probability):
        if leg == "pure":
            monkeypatch.setattr(compat, "np", None)
        elif not HAVE_NUMPY:
            pytest.skip("NumPy unavailable")
        hits = kernels.bernoulli_indices(bases, count, probability)
        return {row: [int(i) for i in indices] for row, indices in hits.items()}

    @staticmethod
    def expected(bases, count, probability):
        rows = (
            [i for i in range(count) if unit_from_base(base, i) < probability]
            for base in bases
        )
        return {row: hits for row, hits in enumerate(rows) if hits}

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    @pytest.mark.parametrize(
        "bases, count, probability",
        [
            ([], 10, 0.5),
            ([3, 4, 5, 6, 7, 8], 1, 0.5),
            ([0, 2**63, 2**64 - 1], 40, 0.0),
            ([0, 2**63, 2**64 - 1], 40, 1.0),
            ([12345, 1, 99], 300, 0.05),
        ],
        ids=["no-bases", "count-1", "p-0", "p-1", "sparse"],
    )
    def test_matches_scalar_rows(
        self, leg, monkeypatch, bases, count, probability
    ):
        got = self.drawn(leg, monkeypatch, bases, count, probability)
        assert got == self.expected(bases, count, probability)
        if probability == 1.0:
            assert got == {row: list(range(count)) for row in range(3)}

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    @pytest.mark.parametrize(
        "probability", [2.0**-64, 0.25, 0.5, math.nextafter(1.0, 0.0)]
    )
    def test_boundary_words(self, leg, monkeypatch, probability):
        # Row r is crafted so that index r % 3 draws one of the words
        # around the threshold, or an extreme word.
        if not HAVE_NUMPY:
            pytest.skip("the threshold is computed with NumPy")
        threshold = int(kernels.word_thresholds(probability))
        words = [threshold - 1, threshold, 0, 2**64 - 1]
        bases = [
            base_for_word(row % 3, word)
            for row, word in enumerate(w for w in words for _ in range(3))
        ]
        got = self.drawn(leg, monkeypatch, bases, 3, probability)
        assert got == self.expected(bases, 3, probability)
        for row in range(len(bases)):
            takes = words[row // 3] < threshold
            assert (row % 3 in got.get(row, ())) == takes

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    @given(
        bases=st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), max_size=12
        ),
        count=st.integers(min_value=0, max_value=60),
        probability=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_rows(self, leg, bases, count, probability):
        with pytest.MonkeyPatch.context() as monkeypatch:
            got = self.drawn(leg, monkeypatch, bases, count, probability)
        assert got == self.expected(bases, count, probability)


class TestBlocks:
    def test_cover_range_without_overlap(self):
        rows = kernels.CELLS // 16
        spans = list(kernels.blocks(2 * rows + 1, bins=16))
        assert spans == [(0, rows), (rows, 2 * rows), (2 * rows, 2 * rows + 1)]

    def test_empty_count_yields_nothing(self):
        assert list(kernels.blocks(0, bins=16)) == []

    def test_cells_bound_the_block_whatever_the_width(self):
        for bins in (1, 3, 16, 200, 1000, kernels.CELLS, 10 * kernels.CELLS):
            (start, rows), *_ = kernels.blocks(kernels.CELLS + 1, bins)
            assert start == 0 and rows >= 1
            assert rows * bins <= max(kernels.CELLS, bins)
            assert (rows + 1) * bins > kernels.CELLS

    @needs_numpy
    @pytest.mark.parametrize("name", ["trivial", "crush"])
    def test_wide_fleet_peak_memory(self, name):
        # 1 000 devices × 8 192 addresses is 8.2 M cells: one float64
        # matrix of the whole batch would be 66 MB.  Blocks of CELLS
        # cells keep a few such matrices at 256 KB each.
        strategy = create(name, bins_from_capacities([1000] * 1000), copies=3)
        addresses = list(range(8192))
        tracemalloc.start()
        try:
            strategy.place_many(addresses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
