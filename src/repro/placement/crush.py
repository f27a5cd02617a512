"""CRUSH — Controlled Replication Under Scalable Hashing (Weil et al., SC'06).

The closest relative of the paper's strategies ([12] in its bibliography):
a deterministic, hierarchical, weighted placement function.  A *crush map*
is a tree of buckets; each bucket selects among its items with a
type-specific pseudo-random rule, and replica selection walks the tree once
per replica with collision retries (``choose firstn``).

Implemented bucket types (the SC'06 catalogue minus the tree bucket):

* **uniform** — equal-probability choice; O(1); any weight change reshuffles
  the whole bucket (intended for never-changing rows of identical disks).
* **list** — items are scanned newest-to-oldest and item ``i`` is taken
  with probability ``w_i / W_i`` (its weight over the suffix sum).  This is
  the same hazard-walk idea as LinMirror's primary selection, which is why
  the paper can be seen as the replication-correct generalisation of it.
* **straw2** — every item draws a "straw" of length ``ln(u) / w`` and the
  longest straw wins; exactly weight-proportional and movement-optimal
  under weight changes (this is the modern Ceph default).

Like RUSH (and unlike Redundant Share), CRUSH resolves replica collisions
by *retrying*, which perturbs fairness on small or strongly heterogeneous
pools — the effect the baseline bench quantifies.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import ConfigurationError, PlacementError
from ..hashing.primitives import derive_base, unit_from_base_open
from ..types import BinSpec, Placement
from . import kernels
from .base import ReplicationStrategy

#: Maximum collision retries per replica before giving up.
MAX_ATTEMPTS = 64

Item = Union["Bucket", str]


class Bucket(abc.ABC):
    """A weighted interior node of the crush map."""

    kind = "abstract"

    def __init__(self, name: str, items: Sequence[Item], weights: Sequence[float]):
        if not items:
            raise ConfigurationError(f"bucket {name!r} has no items")
        if len(items) != len(weights):
            raise ConfigurationError("items and weights must align")
        if any(weight <= 0 for weight in weights):
            raise ConfigurationError("bucket weights must be positive")
        self.name = name
        self.items = list(items)
        self.weights = [float(weight) for weight in weights]

    @property
    def weight(self) -> float:
        """Total weight of the bucket (used by parent buckets)."""
        return sum(self.weights)

    @abc.abstractmethod
    def choose(self, address: int, replica: int, attempt: int) -> Item:
        """Select one item for (ball, replica, retry attempt)."""

    def _base(self, *parts) -> int:
        """Precomputable salt base for this bucket (+ item label parts)."""
        return derive_base("crush", self.name, *parts)

    def _draw(self, address: int, replica: int, attempt: int, *parts) -> float:
        return unit_from_base_open(
            self._base(*parts), address, replica, attempt
        )


class UniformBucket(Bucket):
    """Equal-probability selection (weights must be identical)."""

    kind = "uniform"

    def __init__(self, name: str, items: Sequence[Item], weights: Sequence[float]):
        super().__init__(name, items, weights)
        if len(set(self.weights)) != 1:
            raise ConfigurationError(
                f"uniform bucket {name!r} requires identical weights"
            )

    def choose(self, address: int, replica: int, attempt: int) -> Item:
        base = getattr(self, "_uniform_base", None)
        if base is None:
            base = self._uniform_base = self._base()
        draw = unit_from_base_open(base, address, replica, attempt)
        return self.items[int(draw * len(self.items)) % len(self.items)]


class ListBucket(Bucket):
    """Suffix-weight hazard walk, newest item first."""

    kind = "list"

    def __init__(self, name: str, items: Sequence[Item], weights: Sequence[float]):
        super().__init__(name, items, weights)
        # Walk newest (last appended) to oldest, so precompute suffix sums
        # and per-item salt bases in that traversal order.
        self._order = list(range(len(self.items) - 1, -1, -1))
        self._bases = [
            self._base(item.name if isinstance(item, Bucket) else item)
            for item in self.items
        ]

    def choose(self, address: int, replica: int, attempt: int) -> Item:
        remaining = self.weight
        for index in self._order:
            weight = self.weights[index]
            item = self.items[index]
            if remaining <= weight:
                return item
            draw = unit_from_base_open(
                self._bases[index], address, replica, attempt
            )
            if draw < weight / remaining:
                return item
            remaining -= weight
        return self.items[self._order[-1]]


class Straw2Bucket(Bucket):
    """Longest-straw selection: ``straw = ln(u) / w``; exactly fair."""

    kind = "straw2"

    def __init__(self, name: str, items, weights):
        """Build the bucket and precompute per-item salt bases."""
        super().__init__(name, items, weights)
        self._bases = [
            self._base(item.name if isinstance(item, Bucket) else item)
            for item in self.items
        ]

    def choose(self, address: int, replica: int, attempt: int) -> Item:
        best_item = self.items[0]
        best_straw = -math.inf
        for item, weight, base in zip(self.items, self.weights, self._bases):
            draw = unit_from_base_open(base, address, replica, attempt)
            straw = math.log(draw) / weight  # negative; closer to 0 wins
            if straw > best_straw:
                best_straw = straw
                best_item = item
        return best_item


class TreeBucket(Bucket):
    """Weighted binary-tree descent (the SC'06 tree bucket).

    A balanced binary tree is built over the items; selection walks from
    the root, at each interior node descending left with probability
    ``left subtree weight / node weight``.  Selection costs O(log n), and
    a weight change only re-decides balls whose path crosses the changed
    node — between list (O(n), additions cheap) and straw (O(n), all
    changes cheap) in the CRUSH trade-off table.
    """

    kind = "tree"

    def __init__(self, name: str, items: Sequence[Item], weights: Sequence[float]):
        super().__init__(name, items, weights)
        # The tree is stored as nested tuples:
        #   leaf      -> ("leaf", item_index)
        #   interior  -> ("node", node_id, left, right, left_w, right_w)
        self._node_count = 0
        self._tree = self._build(0, len(self.items))

    def _build(self, lo: int, hi: int):
        if hi - lo == 1:
            return ("leaf", lo)
        mid = (lo + hi) // 2
        node_id = self._node_count
        self._node_count += 1
        left = self._build(lo, mid)
        right = self._build(mid, hi)
        left_weight = sum(self.weights[lo:mid])
        right_weight = sum(self.weights[mid:hi])
        return ("node", node_id, left, right, left_weight, right_weight)

    def choose(self, address: int, replica: int, attempt: int) -> Item:
        bases = getattr(self, "_node_bases", None)
        if bases is None:
            bases = self._node_bases = [
                self._base(node_id) for node_id in range(self._node_count)
            ]
        node = self._tree
        while node[0] == "node":
            _, node_id, left, right, left_weight, right_weight = node
            draw = unit_from_base_open(
                bases[node_id], address, replica, attempt
            )
            if draw * (left_weight + right_weight) < left_weight:
                node = left
            else:
                node = right
        return self.items[node[1]]


_BUCKET_TYPES = {
    "uniform": UniformBucket,
    "list": ListBucket,
    "straw2": Straw2Bucket,
    "tree": TreeBucket,
}


def make_bucket(
    kind: str, name: str, items: Sequence[Item], weights: Sequence[float]
) -> Bucket:
    """Construct a bucket by type name ('uniform', 'list' or 'straw2')."""
    try:
        bucket_cls = _BUCKET_TYPES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown bucket type {kind!r}; choose from {sorted(_BUCKET_TYPES)}"
        ) from None
    return bucket_cls(name, items, weights)


class CrushStrategy(ReplicationStrategy):
    """``choose firstn`` replica selection over a crush map."""

    name = "crush"
    kernel = "straw2-descent"

    def __init__(
        self,
        bins: Sequence[BinSpec],
        copies: int = 2,
        namespace: str = "",
        bucket_type: str = "straw2",
        root: Optional[Bucket] = None,
    ) -> None:
        """Build the strategy.

        Args:
            bins: Flat device list (used when no explicit map is given, and
                for the strategy interface bookkeeping).
            copies: Replication degree.
            namespace: Hash salt prefix (only used for interface parity; the
                map's bucket names already isolate draws).
            bucket_type: Bucket type for the implicit single-level map.
            root: An explicit bucket hierarchy; its leaves must be exactly
                the ids in ``bins``.
        """
        super().__init__(bins, copies, namespace)
        if root is None:
            root = make_bucket(
                bucket_type,
                f"{self._namespace}/root",
                [spec.bin_id for spec in self._bins],
                [float(spec.capacity) for spec in self._bins],
            )
        leaf_ids = set(_collect_leaves(root))
        bin_ids = {spec.bin_id for spec in self._bins}
        if leaf_ids != bin_ids:
            raise ConfigurationError(
                "crush map leaves do not match the bin list: "
                f"missing={sorted(bin_ids - leaf_ids)} "
                f"extra={sorted(leaf_ids - bin_ids)}"
            )
        self._root = root
        # The batch engine handles the common flat map — a single straw2
        # bucket over the devices (the implicit default).  Hierarchies and
        # other bucket types keep the generic scalar loop.
        self._has_engine = isinstance(root, Straw2Bucket) and all(
            isinstance(item, str) for item in root.items
        )
        self._vector: Optional[tuple] = None

    @property
    def root(self) -> Bucket:
        """The crush map root bucket."""
        return self._root

    def _descend(self, address: int, replica: int, attempt: int) -> str:
        node: Item = self._root
        while isinstance(node, Bucket):
            node = node.choose(address, replica, attempt)
        return node

    def place(self, address: int) -> Placement:
        chosen: List[str] = []
        taken = set()
        for replica in range(self._copies):
            device = None
            for attempt in range(MAX_ATTEMPTS):
                candidate = self._descend(address, replica, attempt)
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
        retry attempt then re-draws straws *only for the rows whose
        winner collided* — the scalar loop's ``choose firstn`` semantics
        with the per-attempt work shrinking to the collision tail.  Rows
        where any straw race was decided inside
        :data:`~repro.placement.kernels.TIE_GUARD`, and rows that exhaust
        :data:`MAX_ATTEMPTS`, are returned for the driver to settle
        through :meth:`place` — which raises :class:`PlacementError`
        exactly where the scalar loop would.
        """
        bases, weights, item_ranks = self._ensure_vector_state(np)
        items = bases.shape[0]
        refused: List[int] = []
        for start, stop in kernels.blocks(keys.shape[0]):
            mixed = kernels.premix(keys[start:stop])
            block = stop - start
            premixed = kernels.state_matrix(bases, mixed)
            taken = np.zeros((block, items), dtype=bool)
            unsafe = np.zeros(block, dtype=bool)
            for replica in range(self._copies):
                states = kernels.fold_salt(premixed, replica)
                pending = np.arange(block)
                out = np.zeros(block, dtype=np.int64)
                for attempt in range(MAX_ATTEMPTS):
                    if pending.size == 0:
                        break
                    draws = kernels.open_draws_from_state(
                        kernels.fold_salt(states[pending], attempt)
                    )
                    straws = kernels.straw2_score_matrix(weights, draws)
                    winners, attempt_unsafe = kernels.argmax_with_guard(
                        straws
                    )
                    unsafe[pending[attempt_unsafe]] = True
                    collided = taken[pending, winners]
                    accepted = pending[~collided]
                    out[accepted] = winners[~collided]
                    taken[accepted, winners[~collided]] = True
                    pending = pending[collided]
                if pending.size:
                    # Exhausted retries: the scalar loop raises here.
                    unsafe[pending] = True
                columns[replica, start:stop] = item_ranks[out]
            refused.extend(start + np.flatnonzero(unsafe))
        return refused


def _collect_leaves(node: Item) -> List[str]:
    if isinstance(node, Bucket):
        leaves: List[str] = []
        for item in node.items:
            leaves.extend(_collect_leaves(item))
        return leaves
    return [node]


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
        bucket_type: str = "straw2",
    ) -> None:
        """Build the two-level map.

        Args:
            racks: Failure domains: rack name -> device specs.
            copies: Replication degree (needs at least as many racks).
            namespace: Hash salt prefix.
            bucket_type: Bucket type for both levels.
        """
        if len(racks) < copies:
            raise ConfigurationError(
                f"need at least k={copies} racks, got {len(racks)}"
            )
        self._rack_buckets: Dict[str, Bucket] = {}
        rack_weights = []
        rack_names = []
        all_bins: List[BinSpec] = []
        for rack_name, devices in racks.items():
            devices = list(devices)
            if not devices:
                raise ConfigurationError(f"rack {rack_name!r} has no devices")
            bucket = make_bucket(
                bucket_type,
                f"{namespace or self.name}/rack/{rack_name}",
                [spec.bin_id for spec in devices],
                [float(spec.capacity) for spec in devices],
            )
            self._rack_buckets[rack_name] = bucket
            rack_names.append(rack_name)
            rack_weights.append(bucket.weight)
            all_bins.extend(devices)
        super().__init__(all_bins, copies, namespace)
        self._root = make_bucket(
            bucket_type,
            f"{self._namespace}/root",
            rack_names,
            rack_weights,
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
            chosen_devices.append(device)  # type: ignore[arg-type]
        return tuple(chosen_devices)


def two_level_map(
    racks: Dict[str, Sequence[BinSpec]],
    rack_bucket: str = "straw2",
    device_bucket: str = "straw2",
) -> Tuple[Bucket, List[BinSpec]]:
    """Build a rack/device hierarchy and the flat bin list to go with it.

    Returns:
        ``(root, bins)`` ready to pass to :class:`CrushStrategy`.
    """
    rack_items: List[Item] = []
    rack_weights: List[float] = []
    all_bins: List[BinSpec] = []
    for rack_name, devices in racks.items():
        devices = list(devices)
        if not devices:
            raise ConfigurationError(f"rack {rack_name!r} has no devices")
        bucket = make_bucket(
            device_bucket,
            f"rack/{rack_name}",
            [spec.bin_id for spec in devices],
            [float(spec.capacity) for spec in devices],
        )
        rack_items.append(bucket)
        rack_weights.append(bucket.weight)
        all_bins.extend(devices)
    root = make_bucket("straw2" if rack_bucket == "straw2" else rack_bucket,
                       "root", rack_items, rack_weights)
    return root, all_bins
