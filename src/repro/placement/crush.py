"""CRUSH — Controlled Replication Under Scalable Hashing (Weil et al., SC'06).

The closest relative of the paper's strategies ([12] in its bibliography):
a deterministic, weighted placement function in which a *bucket* selects
among its items with a pseudo-random rule and replica selection retries
on collisions (``choose firstn``).

[12] catalogues four bucket types (uniform, list, tree, straw).  Its list
bucket scans items newest-to-oldest and takes item ``i`` with probability
``w_i / W_i`` (its weight over the suffix sum) — the same hazard-walk
idea as LinMirror's primary selection, which is why the paper can be seen
as the replication-correct generalisation of it.  This module keeps the
one bucket the baseline needs:

* **straw2** — every item draws a "straw" of length ``ln(u) / w`` and the
  longest straw wins; exactly weight-proportional and movement-optimal
  under weight changes (this is the modern Ceph default).

:class:`CrushStrategy` is one flat straw2 bucket over the devices;
:class:`ChooseleafCrush` is two straw2 levels (racks, then devices).

Unlike Redundant Share, CRUSH resolves replica collisions by *retrying*
a fresh straw2 draw: rejection sampling from the trivial baseline's race,
so it misses the fair shares exactly as Lemma 2.4 says.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..exceptions import ConfigurationError, PlacementError
from ..hashing.primitives import derive_base, unit_from_base_open
from ..types import BinSpec, Placement
from . import kernels
from .base import ReplicationStrategy
from .trivial import race_shares

#: Maximum collision retries per replica before giving up.
MAX_ATTEMPTS = 64


class Straw2Bucket:
    """A weighted set of named items with longest-straw selection:
    ``straw = ln(u) / w``; exactly fair."""

    def __init__(
        self, name: str, items: Sequence[str], weights: Sequence[float]
    ) -> None:
        """Build the bucket and precompute per-item salt bases."""
        if not items:
            raise ConfigurationError(f"bucket {name!r} has no items")
        if len(items) != len(weights):
            raise ConfigurationError("items and weights must align")
        if any(weight <= 0 for weight in weights):
            raise ConfigurationError("bucket weights must be positive")
        self.name = name
        self.items = list(items)
        self.weights = [float(weight) for weight in weights]
        self._bases = [derive_base("crush", name, item) for item in self.items]

    @property
    def weight(self) -> float:
        """Total weight of the bucket (its weight in a parent bucket)."""
        return sum(self.weights)

    def choose(self, address: int, replica: int, attempt: int) -> str:
        """Select one item for (ball, replica, retry attempt)."""
        best_item = self.items[0]
        best_straw = -math.inf
        for item, weight, base in zip(self.items, self.weights, self._bases):
            draw = unit_from_base_open(base, address, replica, attempt)
            straw = math.log(draw) / weight  # negative; closer to 0 wins
            if straw > best_straw:
                best_straw = straw
                best_item = item
        return best_item


class CrushStrategy(ReplicationStrategy):
    """``choose firstn`` replica selection over one flat straw2 bucket."""

    name = "crush"
    kernel = "straw2-descent"
    _has_engine = True

    def __init__(
        self,
        bins: Sequence[BinSpec],
        copies: int = 2,
        namespace: str = "",
    ) -> None:
        """Build the strategy.

        Args:
            bins: The devices; each is one item of the root bucket,
                weighted by its capacity.
            copies: Replication degree.
            namespace: Hash salt prefix (it names the root bucket, which
                isolates the draws).
        """
        super().__init__(bins, copies, namespace)
        self._root = Straw2Bucket(
            f"{self._namespace}/root",
            [spec.bin_id for spec in self._bins],
            [spec.capacity for spec in self._bins],
        )
        self._vector: Optional[tuple] = None

    def place(self, address: int) -> Placement:
        chosen: List[str] = []
        taken = set()
        for replica in range(self._copies):
            device = None
            for attempt in range(MAX_ATTEMPTS):
                candidate = self._root.choose(address, replica, attempt)
                if candidate not in taken:
                    device = candidate
                    break
            if device is None:
                raise PlacementError(
                    f"crush could not find a distinct device for replica "
                    f"{replica} of ball {address} within {MAX_ATTEMPTS} tries"
                )
            chosen.append(device)
            taken.add(device)
        return tuple(chosen)

    def expected_shares(self) -> Dict[str, float]:
        """The race of the capacities: a replica retries fresh draws until
        one misses the taken devices, so it is weight-proportional among
        the rest.  :data:`MAX_ATTEMPTS` cuts that short only for an address
        that then raises (``(taken weight share) ** 64`` per replica); the
        addresses that place follow these shares up to that probability."""
        return race_shares(self._root.items, self._root.weights, self._copies)

    # ------------------------------------------------------------------
    # Batch placement
    # ------------------------------------------------------------------

    def _ensure_vector_state(self, np) -> tuple:
        """``(bases, weights, item_ranks)`` of the flat straw2 map: the
        per-item salt bases, weights and bin-rank translation the batch
        engine draws straws from.  Built on the first batch call and kept
        on the instance."""
        if self._vector is None:
            root = self._root
            self._vector = (
                np.asarray(root._bases, dtype=np.uint64),
                np.asarray(root.weights, dtype=np.float64),
                np.asarray(
                    [self._rank_index[item] for item in root.items],
                    dtype=np.int64,
                ),
            )
        return self._vector

    def _fill_ranks(self, np, keys, columns):
        """Vectorized flat straw2 descent with masked retry tail.

        Per replica the whole block shares one folded hash state (the
        address premix and replica fold are reused across retries); each
        retry attempt then re-draws straws *only for the addresses whose
        winner collided* with an earlier replica's — the scalar loop's
        ``choose firstn`` semantics with the per-attempt work shrinking
        to the collision tail.  Every matrix is bins-major and lives in
        one :class:`~repro.placement.kernels.Workspace`.  Addresses where
        any straw race was decided inside
        :data:`~repro.placement.kernels.TIE_GUARD`, and addresses that
        exhaust :data:`MAX_ATTEMPTS`, are returned for the driver to
        settle through :meth:`place` — which raises
        :class:`PlacementError` exactly where the scalar loop would.
        """
        bases, weights, item_ranks = self._ensure_vector_state(np)
        items = bases.shape[0]
        work = kernels.Workspace(items, keys.shape[0])
        refused: List[int] = []
        for start, stop in kernels.blocks(keys.shape[0], items):
            mixed = kernels.premix(keys[start:stop])
            block = stop - start
            shifts = work.matrix("shifts", items, block)
            premixed = kernels.state_matrix(
                bases, mixed, out=work.matrix("premixed", items, block),
                scratch=shifts,
            )
            chosen = np.empty((self._copies, block), dtype=np.int64)
            unsafe = np.zeros(block, dtype=bool)
            for replica in range(self._copies):
                states = kernels.fold_salt(
                    premixed, replica, out=work.matrix("states", items, block),
                    scratch=shifts,
                )
                pending = np.arange(block)
                for attempt in range(MAX_ATTEMPTS):
                    if pending.size == 0:
                        break
                    shape = (items, pending.size)
                    words = work.matrix("words", *shape)
                    scratch = work.matrix("shifts", *shape)
                    tail = states if pending.size == block else np.take(
                        states, pending, axis=1, out=words, mode="clip"
                    )
                    draws = kernels.open_draws_from_state(
                        kernels.fold_salt(
                            tail, attempt, out=words, scratch=scratch
                        ),
                        out=work.matrix("scores", *shape),
                        scratch=scratch,
                    )
                    straws = kernels.straw2_score_matrix(weights, draws)
                    winners, attempt_unsafe = kernels.argmax_with_guard(
                        straws, work
                    )
                    unsafe[pending[attempt_unsafe]] = True
                    collided = (chosen[:replica, pending] == winners).any(
                        axis=0
                    )
                    chosen[replica, pending[~collided]] = winners[~collided]
                    pending = pending[collided]
                if pending.size:
                    # Exhausted retries: the scalar loop raises here.
                    unsafe[pending] = True
                    chosen[replica, pending] = 0
                columns[replica, start:stop] = item_ranks[chosen[replica]]
            refused.extend(start + np.flatnonzero(unsafe))
        return refused


class ChooseleafCrush(ReplicationStrategy):
    """CRUSH ``chooseleaf firstn`` over failure domains.

    Replica ``r`` first selects a rack (distinct from earlier replicas'
    racks, with retries), then descends to one device inside it — the
    standard way CRUSH spreads copies across failure domains.  The
    baseline counterpart of
    :class:`repro.core.hierarchical.HierarchicalRedundantShare`.
    """

    name = "crush-chooseleaf"

    def __init__(
        self,
        racks: Dict[str, Sequence[BinSpec]],
        copies: int = 2,
        namespace: str = "",
    ) -> None:
        """Build the two-level map.

        Args:
            racks: Failure domains: rack name -> device specs.
            copies: Replication degree (needs at least as many racks).
            namespace: Hash salt prefix.
        """
        if len(racks) < copies:
            raise ConfigurationError(
                f"need at least k={copies} racks, got {len(racks)}"
            )
        self._rack_buckets: Dict[str, Straw2Bucket] = {}
        all_bins: List[BinSpec] = []
        for rack_name, devices in racks.items():
            devices = list(devices)
            if not devices:
                raise ConfigurationError(f"rack {rack_name!r} has no devices")
            self._rack_buckets[rack_name] = Straw2Bucket(
                f"{namespace or self.name}/rack/{rack_name}",
                [spec.bin_id for spec in devices],
                [spec.capacity for spec in devices],
            )
            all_bins.extend(devices)
        super().__init__(all_bins, copies, namespace)
        self._root = Straw2Bucket(
            f"{self._namespace}/root",
            list(self._rack_buckets),
            [bucket.weight for bucket in self._rack_buckets.values()],
        )
        self._rack_of = {
            spec.bin_id: rack_name
            for rack_name, devices in racks.items()
            for spec in devices
        }

    def rack_of(self, device_id: str) -> str:
        """Failure domain of a device."""
        return self._rack_of[device_id]

    def place(self, address: int) -> Placement:
        chosen_devices: List[str] = []
        chosen_racks = set()
        for replica in range(self._copies):
            rack = None
            for attempt in range(MAX_ATTEMPTS):
                candidate = self._root.choose(address, replica, attempt)
                if candidate not in chosen_racks:
                    rack = candidate
                    break
            if rack is None:
                raise PlacementError(
                    f"chooseleaf found no distinct rack for replica "
                    f"{replica} of ball {address}"
                )
            chosen_racks.add(rack)
            device = self._rack_buckets[rack].choose(address, replica, 0)
            chosen_devices.append(device)
        return tuple(chosen_devices)

    def expected_shares(self) -> Dict[str, float]:
        """The rack's race share (``firstn`` over racks, as in
        :class:`CrushStrategy`) times the device's share of its rack."""
        racks = race_shares(self._root.items, self._root.weights, self._copies)
        return {
            item: racks[rack] * weight / bucket.weight
            for rack, bucket in self._rack_buckets.items()
            for item, weight in zip(bucket.items, bucket.weights)
        }
