"""Interfaces of the placement layer.

:class:`ReplicationStrategy` maps a ball address to an *ordered* tuple of
``k`` distinct bins (position ``i`` holds the i-th copy).  Implementations
include the paper's Redundant Share, the trivial baseline, CRUSH and RAID
striping; the paper's ``placeonecopy`` primitive is
:class:`~repro.placement.rendezvous.WeightedRendezvous`.

Strategies are *pure functions of the configuration*: instances are immutable
snapshots, and dynamics (adding/removing devices) are modelled by building a
new instance and diffing placements — which is also how the adaptivity
metrics are defined.
"""

from __future__ import annotations

import abc
from collections import Counter, deque
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence

from .. import obs
from .._compat import get_numpy
from ..exceptions import ConfigurationError
from ..hashing.primitives import as_u64_array, int64_column
from ..types import BinSpec, Placement, validate_bins


def record_batch(
    sink: "obs.TraceSink",
    strategy_name: str,
    copies: int,
    batch_size: int,
    kernel: Optional[str] = None,
) -> None:
    """Record one ``place_many`` invocation on an *enabled* sink.

    Called by the batch driver only, so the ``placement.batch`` event
    schema is the same whichever engine ran (the pure-Python/NumPy
    equivalence tests compare traces byte-wise).
    ``kernel`` is the strategy's :attr:`ReplicationStrategy.kernel` family
    name; it describes the *logical* engine, so both legs record the same
    per-kernel counters whichever one actually ran.
    """
    registry = obs.metrics()
    registry.counter("placement.batches").add(1)
    registry.counter("placement.addresses").add(batch_size)
    registry.histogram("placement.batch_size").observe(batch_size)
    if kernel:
        registry.counter(f"placement.kernel.{kernel}.batches").add(1)
        registry.counter(f"placement.kernel.{kernel}.addresses").add(
            batch_size
        )
        registry.histogram(f"placement.kernel.{kernel}.batch_size").observe(
            batch_size
        )
    sink.emit(
        "placement.batch",
        strategy=strategy_name,
        copies=copies,
        addresses=batch_size,
    )


def record_tie_recomputes(kernel: str, count: int) -> None:
    """Count scalar re-derivations forced by the tie guard.

    Only recorded when ``count > 0``: guard trips are astronomically rare
    (sub-ulp margins), and recording zero would create the counter on the
    NumPy leg only, breaking the byte-wise trace equivalence the obs
    layer guarantees between legs.
    """
    if count:
        obs.metrics().counter(
            f"placement.kernel.{kernel}.tie_recomputes"
        ).add(count)


class BatchPlacement:
    """Column-oriented result of :meth:`ReplicationStrategy.place_many`.

    Stores one *rank column* per copy position: ``columns[c][j]`` is the
    index into :attr:`rank_ids` of the bin holding copy ``c`` of the j-th
    address: NumPy integer arrays, lists or :mod:`array` slices, and the
    row-oriented accessors behave identically either way.  A batch equals
    another with the same rows, and the ``k``-id lists the codec renders.
    """

    __slots__ = ("rank_ids", "columns")

    def __init__(self, rank_ids: Sequence[str], columns: Sequence) -> None:
        """Wrap ``k`` equally long rank columns over a rank → id table."""
        self.rank_ids: List[str] = list(rank_ids)
        self.columns = list(columns)

    @property
    def copies(self) -> int:
        """Replication degree ``k`` (number of columns)."""
        return len(self.columns)

    def __len__(self) -> int:
        """Number of addresses placed."""
        return len(self.columns[0]) if self.columns else 0

    def ids_at(self, position: int) -> List[str]:
        """Bin ids of copy ``position`` for every address (one column)."""
        np, column = self._numpy(), self.columns[position]
        if np is not None:
            return np.array(self.rank_ids, dtype=object)[column].tolist()
        return list(map(self.rank_ids.__getitem__, column))

    def _numpy(self):
        """NumPy when the columns are its arrays, else None."""
        np, first = get_numpy(), self.columns[0] if self.columns else None
        return np if np is not None and isinstance(first, np.ndarray) else None

    def tuples(self) -> List[Placement]:
        """Row view: the list ``[place(a) for a in addresses]`` would give."""
        return list(zip(*map(self.ids_at, range(self.copies))))

    def __iter__(self) -> Iterator[Placement]:
        """Iterate the row view (per-address placements)."""
        return iter(self.tuples())

    def __getitem__(self, index: int) -> Placement:
        """Row ``index`` of the row view: one address's placement."""
        index = range(len(self))[index]
        return tuple(self.rank_ids[column[index]] for column in self.columns)

    __hash__ = None  # type: ignore[assignment]  # equal by rows, mutable

    def __eq__(self, other: object) -> bool:
        """Equal to a batch with the same rows, or to a list of ``k``-id
        lists holding them."""
        if isinstance(other, BatchPlacement):
            return self.tuples() == other.tuples()
        if type(other) is not list:
            return NotImplemented
        count, copies = len(self), self.copies
        # The row shapes in C, then one flat compare: no row objects.
        if [list] * count != list(map(type, other)) or (
            [copies] * count != list(map(len, other))
        ):
            return False
        flat: List[str] = []
        deque(map(flat.extend, other), maxlen=0)
        ids = [""] * len(flat)
        for position in range(copies):
            ids[position::copies] = self.ids_at(position)
        return flat == ids

    def counts(self) -> Dict[str, int]:
        """Per-bin copy histogram: how many of :meth:`tuples`' entries name
        each bin."""
        np = self._numpy()
        if np is not None:
            size = len(self.rank_ids)
            total = sum(np.bincount(rank, minlength=size) for rank in self.columns)
            tally = {rank: n for rank, n in enumerate(total.tolist()) if n}
        else:
            tally = Counter(chain.from_iterable(self.columns))
        return {self.rank_ids[rank]: tally[rank] for rank in sorted(tally)}


class ReplicationStrategy(abc.ABC):
    """Maps ball addresses to ordered tuples of ``k`` distinct bins."""

    name: str = "replication"

    #: Name of the shared-kernel family the strategy's batch engine is
    #: built on (see :mod:`repro.placement.kernels`), or None for a
    #: strategy without an engine, whose batches are the generic
    #: per-address loop on every leg.  Used for the per-kernel obs
    #: counters and reported by the trade-off bench; it labels the
    #: *logical* engine, so it stays set even when the scalar loop runs.
    kernel: Optional[str] = None

    #: Whether the class implements :meth:`_fill_ranks`; engine classes
    #: set it True, and without it every batch is the scalar loop.
    _has_engine: bool = False

    def __init__(
        self, bins: Sequence[BinSpec], copies: int, namespace: str = ""
    ) -> None:
        validate_bins(bins)
        if copies < 1:
            raise ConfigurationError(f"copies must be >= 1, got {copies}")
        if copies > len(bins):
            raise ConfigurationError(
                f"cannot place {copies} distinct copies on {len(bins)} bins"
            )
        self._bins: List[BinSpec] = list(bins)
        self._copies = copies
        self._namespace = namespace or self.name
        self.rank_ids = [spec.bin_id for spec in self._bins]

    @property
    def rank_ids(self) -> List[str]:
        """Bin ids in rank order: what the rank columns of
        :meth:`place_many` index into.  Bins order unless the strategy
        assigns its own (the hazard-scan family ranks by capacity)."""
        return list(self._rank_ids)

    @rank_ids.setter
    def rank_ids(self, ids: Sequence[str]) -> None:
        self._rank_ids = list(ids)
        self._rank_index = {
            bin_id: rank for rank, bin_id in enumerate(self._rank_ids)
        }

    @property
    def bins(self) -> List[BinSpec]:
        """The configuration snapshot this strategy was built from."""
        return list(self._bins)

    @property
    def copies(self) -> int:
        """Replication degree ``k``."""
        return self._copies

    @property
    def namespace(self) -> str:
        """Salt prefix isolating this strategy's hash draws from others."""
        return self._namespace

    @abc.abstractmethod
    def place(self, address: int) -> Placement:
        """Return the ordered bin ids of all ``k`` copies of ``address``."""

    def place_many(self, addresses: Sequence[int]) -> BatchPlacement:
        """Batch lookup: the placements of many addresses, column-wise.

        Semantically equivalent to ``[place(a) for a in addresses]`` (see
        :meth:`BatchPlacement.tuples`), but returned as ``k`` bin-rank
        columns so throughput-oriented consumers (fairness histograms,
        movement comparisons, rebalancing backlogs) can stay in array
        land.  This is the one batch driver, shared by every strategy,
        and it runs in the calling process: placement is a pure function
        per address, so a caller that wants parallelism splits the
        address vector and calls it from its own pool.

        Without NumPy, or when the strategy has no engine, the batch is
        ``place()`` per address.  Otherwise
        the strategy's :meth:`_fill_ranks` fills a ``(k, n)`` rank matrix
        and names the rows it refuses to decide; exactly those rows are
        settled by ``place()``, so the scalar loop stays the authority
        and the batch element-wise identical to it (see "The TIE_GUARD
        contract" in :mod:`repro.placement.kernels`).
        """
        np = get_numpy()
        count = len(addresses)
        index = self._rank_index
        place = self.place
        refused: Sequence[int] = ()
        if np is None or not self._has_engine:
            columns: Sequence = [[] for _ in range(self._copies)]
            # Plain ints: scalar hash chains mask with Python constants,
            # which NumPy integer scalars overflow on.
            for address in map(int, addresses):
                for position, bin_id in enumerate(place(address)):
                    columns[position].append(index[bin_id])
            if np is not None:
                columns = [int64_column(column) for column in columns]
        else:
            columns = np.empty((self._copies, count), dtype=np.int64)
            if count:
                refused = self._fill_ranks(
                    np, self._engine_keys(np, addresses), columns
                )
            for row in refused:
                for position, bin_id in enumerate(place(int(addresses[row]))):
                    columns[position, row] = index[bin_id]
            columns = list(columns)
        sink = obs.sink()
        if sink.enabled:
            record_tie_recomputes(self.kernel, len(refused))
            record_batch(
                sink, self.name, self._copies, count, kernel=self.kernel
            )
            self._record_engine_events(sink, columns)
        return BatchPlacement(self._rank_ids, columns)

    def _engine_keys(self, np, addresses: Sequence[int]):
        """What :meth:`_fill_ranks` consumes per address: the address
        mod 2^64 as a ``uint64`` vector (hash input) by default."""
        return as_u64_array(addresses)

    def _fill_ranks(self, np, keys, columns) -> Sequence[int]:
        """Engine hook: fill ``columns[c, j]`` with the rank of copy ``c``
        of the j-th address (``keys`` from :meth:`_engine_keys`, never
        empty) and return the row indices left undecided — near-ties
        inside the guard, retry exhaustion — for the driver to settle
        through :meth:`place`.  Only called with NumPy (``np``) and
        :attr:`_has_engine` set."""
        raise NotImplementedError

    def _record_engine_events(self, sink, columns) -> None:
        """Engine-specific events of one batch, after ``placement.batch``
        (``columns``: the ``k`` rank columns, lists without NumPy)."""

    def place_copy(self, address: int, position: int) -> str:
        """Return only the bin of copy ``position`` (0-based).

        Default delegates to :meth:`place`; strategies with cheaper partial
        lookups may override.
        """
        placement = self.place(address)
        if not 0 <= position < len(placement):
            raise IndexError(f"copy position {position} out of range")
        return placement[position]

    @abc.abstractmethod
    def expected_shares(self) -> Dict[str, float]:
        """Each bin's exact expected share of the copies this strategy
        places (the shares sum to 1): the oracle its fairness is tested
        against, which is the fair share only where the strategy is."""

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.name}(k={self._copies}, {len(self._bins)} bins)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def check_placement(placement: Placement, copies: int) -> None:
    """Assert the paper's redundancy invariant on a placement result.

    Raises:
        ValueError: if the placement has the wrong arity or repeats a bin.
    """
    if len(placement) != copies:
        raise ValueError(
            f"expected {copies} copies, placement has {len(placement)}"
        )
    if len(set(placement)) != len(placement):
        raise ValueError(f"redundancy violated: duplicate bins in {placement}")
