"""The storage cluster: devices + placement strategy + erasure code.

This is the block-level storage virtualization the paper describes: clients
address a flat space of blocks; the cluster encodes each block into ``k``
shares, asks the placement strategy where the i-th share lives, and keeps
the physical layout in sync as devices enter, leave or fail.

The interesting operations are the reconfigurations:

* :meth:`Cluster.add_device` / :meth:`Cluster.remove_device` — build the
  strategy for the new device set *first* (a set the factory refuses
  leaves the cluster untouched), commit it in one step, then migrate
  exactly the shares whose placement changed through
  :meth:`Cluster.migrate`, returning a :class:`MigrationReport` (the
  quantity Figures 3/5 measure).  A lazy add commits the same way and
  leaves the drain to :class:`~repro.cluster.rebalancer.Rebalancer`,
  which calls the same mover.
* :meth:`Cluster.fail_device` / :meth:`Cluster.repair_device` — crash a
  device (losing its contents) and rebuild the lost shares from surviving
  redundancy via the erasure code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..erasure.base import ErasureCode
from ..erasure.mirror import MirrorCode
from ..exceptions import (
    BlockNotFoundError,
    CapacityExceededError,
    ConfigurationError,
    DeviceNotFoundError,
    DeviceUnavailableError,
)
from ..metrics.fairness import fill_percentages
from ..placement.base import ReplicationStrategy
from ..types import BinSpec
from .blockmap import BlockMap
from .device import DeviceState, StorageDevice

#: Builds a strategy for a device set; partial-apply strategy parameters.
StrategyFactory = Callable[[Sequence[BinSpec]], ReplicationStrategy]


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of a reconfiguration.

    Attributes:
        trigger: ``"add"`` or ``"remove"``.
        device_id: The affected device.
        moved_shares: Shares whose device changed (physically copied).
        rebuilt_shares: Moved shares that had to be reconstructed from
            redundancy because their source was failed/removed.
        total_shares: Shares tracked at the time of the change.
        used_on_affected: Shares on the affected device after an add /
            before a remove — the paper's ``used`` denominator.
    """

    trigger: str
    device_id: str
    moved_shares: int
    rebuilt_shares: int
    total_shares: int
    used_on_affected: int

    @property
    def movement_factor(self) -> float:
        """``replaced / used`` — the Figure 3/5 competitive factor."""
        if self.used_on_affected == 0:
            return 0.0
        return self.moved_shares / self.used_on_affected


@dataclass
class ClusterStats:
    """Point-in-time usage snapshot."""

    devices: Dict[str, int] = field(default_factory=dict)
    capacities: Dict[str, int] = field(default_factory=dict)

    @property
    def fill_percentages(self) -> Dict[str, float]:
        """Percent full per device."""
        return fill_percentages(self.devices, self.capacities)


class Cluster:
    """A reconfigurable, redundant block store over simulated devices."""

    def __init__(
        self,
        devices: Sequence[BinSpec],
        strategy_factory: StrategyFactory,
        code: Optional[ErasureCode] = None,
    ) -> None:
        """Assemble the cluster.

        Args:
            devices: Initial device specs.
            strategy_factory: Builds the placement strategy for any device
                set, e.g. ``lambda bins: RedundantShare(bins, copies=2)``.
            code: Erasure code for block payloads; defaults to plain
                mirroring matching the strategy's replication degree.

        Raises:
            ConfigurationError: if the code's share count disagrees with
                the strategy's replication degree.
        """
        self._factory = strategy_factory
        self._strategy = strategy_factory(list(devices))
        self._code = code or MirrorCode(self._strategy.copies)
        if self._code.total_shares != self._strategy.copies:
            raise ConfigurationError(
                f"code produces {self._code.total_shares} shares but the "
                f"strategy places {self._strategy.copies} copies"
            )
        self._specs = {spec.bin_id: spec for spec in devices}
        self._devices = {
            spec.bin_id: StorageDevice(spec.bin_id, spec.capacity)
            for spec in devices
        }
        self._map = BlockMap()
        self._block_sizes: Dict[int, int] = {}
        # Stores a non-serving device missed: whatever it holds under these
        # keys when it is back is stale (see sync_device).
        self._missed: Dict[str, set] = {}
        sink = obs.sink()
        if sink.enabled:
            sink.emit("cluster.created", devices=len(self._devices))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def strategy(self) -> ReplicationStrategy:
        """The current placement strategy snapshot."""
        return self._strategy

    @property
    def code(self) -> ErasureCode:
        """The erasure code in use."""
        return self._code

    @property
    def block_count(self) -> int:
        """Number of blocks currently stored."""
        return len(self._map)

    def addresses(self) -> List[int]:
        """All stored block addresses (snapshot)."""
        return list(self._map.addresses())

    def placement_of(self, address: int) -> "tuple":
        """Recorded placement of a stored block.

        Raises:
            BlockNotFoundError: if the block was never written.
        """
        return self._map.lookup(address)

    def __contains__(self, address: int) -> bool:
        """True while a block is stored at ``address``."""
        return self._map.contains(address)

    def device_ids(self) -> List[str]:
        """Sorted ids of all devices, whatever their state."""
        return sorted(self._devices)

    def device(self, device_id: str) -> StorageDevice:
        """Access one device.

        Raises:
            DeviceNotFoundError: for unknown ids.
        """
        try:
            return self._devices[device_id]
        except KeyError:
            raise DeviceNotFoundError(f"no device {device_id!r}") from None

    def shares_on(self, device_id: str) -> List["tuple"]:
        """Share keys ``(address, position)`` mapped to a device.

        The mapping view, not the physical one: after a crash the device
        holds nothing, but the map still says which shares belong there —
        exactly the work list a repair pipeline needs.

        Raises:
            DeviceNotFoundError: for unknown ids.
        """
        self.device(device_id)  # raises for unknown ids
        return list(self._map.shares_on(device_id))

    def stats(self) -> ClusterStats:
        """Usage snapshot for fairness reporting."""
        return ClusterStats(
            devices={
                device_id: device.used
                for device_id, device in self._devices.items()
            },
            capacities={
                device_id: device.capacity
                for device_id, device in self._devices.items()
            },
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def write(self, address: int, payload: bytes) -> None:
        """Store a block: encode, place, persist all shares.

        Writes are *degraded-mode tolerant*: shares whose target device
        does not serve I/O (failed or offline) are skipped; the placement
        is still recorded, and a repair rebuilds them from the stored
        redundancy.

        Raises:
            CapacityExceededError: if a serving target is full — raised
                before anything is dropped or stored.
        """
        shares = self._code.encode(payload)
        placement = self._strategy.place(address)
        old = self._map.lookup(address) if self._map.contains(address) else ()
        for device_id in placement:
            device = self._devices[device_id]
            # A full target still has room if this block's own old share
            # is about to free a slot on it.
            if (
                device.is_active
                and device.used >= device.capacity
                and not (
                    device_id in old
                    and device.holds((address, old.index(device_id)))
                )
            ):
                raise CapacityExceededError(
                    f"device {device_id!r} is full; block {address} was "
                    f"not written"
                )
        if old:
            self._drop_shares(address)
        for position, (device_id, share) in enumerate(zip(placement, shares)):
            self._store(device_id, (address, position), share)
        self._map.record(address, placement)
        self._block_sizes[address] = len(payload)

    def _store(self, device_id: str, key: "tuple", payload: bytes) -> None:
        """Store a share on its target, or note that the target missed it."""
        device = self._devices[device_id]
        if device.is_active:
            device.store(key, payload)
        else:
            self._missed.setdefault(device_id, set()).add(key)

    def read(self, address: int, *, scheduler=None) -> bytes:
        """Fetch a block, decoding around devices that cannot serve.

        With a ``scheduler`` (see :mod:`repro.scheduling`) the preferred
        copy is read first and load is accounted against it, so degraded
        reads spread over the survivors instead of hammering position 0.

        Raises:
            BlockNotFoundError: if the block was never written.
            DeviceUnavailableError: if too few shares are reachable
                *because* a device is offline (retrying later may succeed).
            DecodingError: if the data is gone — retrying will not help.
        """
        need = self._code.data_shares
        shares, skipped = self.collect_shares(
            address, need=need, scheduler=scheduler
        )
        placement = self._map.lookup(address)
        if len(shares) < need and any(
            self._devices[placement[position]].state is DeviceState.OFFLINE
            for position in skipped
        ):
            raise DeviceUnavailableError(
                f"block {address}: only {len(shares)}/{need} shares "
                f"reachable; an offline device holds more"
            )
        payload = self._code.decode(shares)
        return payload[: self._block_sizes[address]]

    def delete(self, address: int) -> None:
        """Remove a block and its shares.

        Raises:
            BlockNotFoundError: if the block was never written.
        """
        self._map.lookup(address)  # raises for unknown blocks
        self._drop_shares(address)
        self._map.forget(address)
        self._block_sizes.pop(address, None)

    def _drop_shares(self, address: int) -> None:
        placement = self._map.lookup(address)
        for position, device_id in enumerate(placement):
            device = self._devices.get(device_id)
            if device is not None and device.is_active:
                device.discard((address, position))

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------

    def _swap(self, specs: Sequence[BinSpec]) -> None:
        """Commit the strategy for a new device set: the one place a
        reconfiguration changes it.

        The factory runs first, so a device set it refuses raises here and
        leaves the cluster exactly as it was.

        Raises:
            ReproError: whatever the factory raises for ``specs``.
        """
        strategy = self._factory(sorted(specs, key=lambda spec: spec.bin_id))
        self._specs = {spec.bin_id: spec for spec in specs}
        self._strategy = strategy
        if obs.sink().enabled:
            obs.metrics().counter("cluster.strategy_swaps").add(1)

    def add_device(self, spec: BinSpec, rebalance: bool = True) -> MigrationReport:
        """Bring a new device online and (by default) rebalance.

        With ``rebalance=False`` the placement strategy is updated but no
        data moves: new writes use the new layout immediately, and existing
        blocks stay where the map says until migrated — lazily via
        :meth:`migrate` / :class:`~repro.cluster.rebalancer.Rebalancer`.

        Raises:
            ConfigurationError: if the id already exists, or the strategy
                refuses the new device set (nothing changes then).
        """
        if spec.bin_id in self._devices:
            raise ConfigurationError(f"device {spec.bin_id!r} already exists")
        self._swap([*self._specs.values(), spec])
        self._devices[spec.bin_id] = StorageDevice(spec.bin_id, spec.capacity)
        report = self._migration("add", spec.bin_id, rebalance=rebalance)
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().counter("cluster.devices_added").add(1)
            sink.emit(
                "device.added",
                device=spec.bin_id,
                rebalance=rebalance,
                moved=report.moved_shares,
            )
        return report

    def out_of_place(self) -> List[int]:
        """Blocks whose recorded placement differs from the current
        strategy's — the backlog of a lazy reconfiguration.

        Computed with one batch placement over all stored addresses (the
        strategy's vectorized engine where available) instead of a
        per-block lookup loop.
        """
        addresses = list(self._map.addresses())
        placements = self._strategy.place_many(addresses).tuples()
        lookup = self._map.lookup
        return [
            address
            for address, placement in zip(addresses, placements)
            if lookup(address) != placement
        ]

    def migrate(self, addresses: Iterable[int]) -> Tuple[int, int]:
        """Move blocks to their current-strategy placement.

        The one mover behind eager reconfigurations and lazy rebalancing:
        one batch placement over those of ``addresses`` still stored (a
        block deleted meanwhile is skipped), then per-share work only for
        the blocks that actually move.

        Returns:
            ``(moved, rebuilt)``: shares physically moved, and those of
            them reconstructed from redundancy because their source was
            failed or removed.
        """
        stored = [address for address in addresses if address in self]
        targets = self._strategy.place_many(stored).tuples()
        moved = 0
        rebuilt = 0
        for address, target in zip(stored, targets):
            block_moved, block_rebuilt = self._move_block(address, target)
            moved += block_moved
            rebuilt += block_rebuilt
        if obs.sink().enabled:
            registry = obs.metrics()
            if moved:
                registry.counter("cluster.moved_shares").add(moved)
            if rebuilt:
                registry.counter("cluster.rebuilt_shares").add(rebuilt)
        return moved, rebuilt

    def remove_device(self, device_id: str) -> MigrationReport:
        """Drain and remove a device (graceful decommission).

        Raises:
            DeviceNotFoundError: for unknown ids.
            ConfigurationError: if the strategy refuses the remaining
                devices (nothing changes then).
        """
        if device_id not in self._devices:
            raise DeviceNotFoundError(f"no device {device_id!r}")
        used_before = self._map.share_count(device_id)
        self._swap(
            [spec for spec in self._specs.values() if spec.bin_id != device_id]
        )
        report = self._migration("remove", device_id, used=used_before)
        removed = self._devices.pop(device_id)
        self._missed.pop(device_id, None)
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().counter("cluster.devices_removed").add(1)
            sink.emit(
                "device.removed",
                device=device_id,
                moved=report.moved_shares,
                leftover=removed.used,
            )
        return report

    def _migration(
        self, trigger: str, affected: str, *, rebalance: bool = True,
        used: Optional[int] = None,
    ) -> MigrationReport:
        """The report of a committed reconfiguration, after migrating every
        stored block unless ``rebalance`` is false (a lazy add)."""
        addresses = self.addresses()
        moved, rebuilt = self.migrate(addresses) if rebalance else (0, 0)
        report = MigrationReport(
            trigger=trigger,
            device_id=affected,
            moved_shares=moved,
            rebuilt_shares=rebuilt,
            total_shares=len(addresses) * self._strategy.copies,
            used_on_affected=(
                self._map.share_count(affected) if used is None else used
            ),
        )
        sink = obs.sink()
        if rebalance and sink.enabled:
            sink.emit(
                "cluster.migration",
                trigger=trigger,
                device=affected,
                moved=moved,
                rebuilt=rebuilt,
                total=report.total_shares,
                used=report.used_on_affected,
            )
        return report

    def _move_block(
        self, address: int, new_placement: "tuple"
    ) -> Tuple[int, int]:
        """Move a block's shares from its recorded placement to a new one.

        Shares whose source is gone (failed or removed device) are rebuilt
        from the survivors.  Returns ``(moved, rebuilt)`` share counts.
        """
        old_placement = self._map.lookup(address)
        if old_placement == new_placement:
            return 0, 0
        shares, _ = self.collect_shares(address)
        moved = 0
        rebuilt = 0
        for position, (old_id, new_id) in enumerate(
            zip(old_placement, new_placement)
        ):
            if old_id == new_id:
                continue
            moved += 1
            if position in shares:
                payload = shares[position]
            else:
                payload = self.rebuild_share(shares, position)
                rebuilt += 1
            old_device = self._devices.get(old_id)
            if old_device is not None and old_device.is_active:
                old_device.discard((address, position))
            self._store(new_id, (address, position), payload)
        self._map.record(address, new_placement)
        return moved, rebuilt

    def collect_shares(
        self, address: int, *, need: Optional[int] = None, scheduler=None
    ) -> Tuple[Dict[int, bytes], List[int]]:
        """The one walk over a block's copy positions.

        Visits the recorded placement in position order — or in the
        preferred order of a :class:`repro.scheduling.base.ReadScheduler`,
        whose availability mask is first synced from the device states, so
        a freshly-crashed device stops being chosen on the very next read —
        fetches each share a serving device holds, and stops early once
        ``need`` shares are gathered.

        Returns:
            ``(shares, skipped)``: payloads by position, and the positions
            visited whose device cannot serve (offline or failed).
        """
        placement = self._map.lookup(address)
        devices: List[Optional[StorageDevice]] = []
        for device_id in placement:
            try:
                devices.append(self.device(device_id))
            except DeviceNotFoundError:  # device left the configuration
                devices.append(None)
        positions: Sequence[int] = range(len(placement))
        if scheduler is not None:
            for device_id, device in zip(placement, devices):
                if device is not None and device.is_active:
                    scheduler.mark_online(device_id)
                else:
                    scheduler.mark_offline(device_id)
            try:
                positions = scheduler.order(address, placement)
            except DeviceUnavailableError:
                pass  # nothing schedulable: the plain walk reports skipped
        shares: Dict[int, bytes] = {}
        skipped: List[int] = []
        for position in positions:
            if need is not None and len(shares) >= need:
                break
            device = devices[position]
            if device is None:
                continue
            if not device.is_active:
                skipped.append(position)
            elif device.holds((address, position)):
                shares[position] = device.fetch((address, position))
        return shares, skipped

    def held_shares(self, address: int) -> int:
        """Current shares of a block that its devices hold, serving or not.

        An offline device keeps its contents and serves them again once
        its outage ends, so its shares count; a failed device holds
        nothing, and a share whose latest store its device missed is stale.
        """
        placement = self._map.lookup(address)
        return sum(
            1
            for position, device_id in enumerate(placement)
            if device_id in self._devices
            and self._devices[device_id].holds((address, position))
            and (address, position) not in self._missed.get(device_id, ())
        )

    def rebuild_share(self, shares: Dict[int, bytes], position: int) -> bytes:
        """Reconstruct one share of a block from its surviving shares.

        Raises:
            DecodingError: if ``shares`` are too few to decode the block.
        """
        return self._code.encode(self._code.decode(shares))[position]

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------

    def fail_device(self, device_id: str) -> None:
        """Crash a device; its contents are lost until repaired.

        Raises:
            DeviceNotFoundError: for unknown ids.
        """
        self.device(device_id).fail()
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().counter("cluster.devices_failed").add(1)
            sink.emit("device.failed", device=device_id)

    def sync_device(self, device_id: str) -> List["tuple"]:
        """A device is back: bring its contents in line with the map.

        Discards every share it holds that the map no longer names, or
        whose latest store it missed while it could not serve, and returns
        the mapped shares it lacks — the work list of a repair.  Nothing
        to do (and nothing returned) while the device still cannot serve.

        Raises:
            DeviceNotFoundError: for unknown ids.
        """
        device = self.device(device_id)
        if not device.is_active:
            return []
        mapped = self._map.shares_on(device_id)
        current = set(mapped) - self._missed.pop(device_id, set())
        for key in device.share_keys():
            if key not in current:
                device.discard(key)
        return [key for key in mapped if not device.holds(key)]

    def repair_device(self, device_id: str) -> int:
        """Replace a failed device — or take back an offline one, contents
        intact — and rebuild the shares it lacks from redundancy.

        Returns:
            Number of shares reconstructed.

        Raises:
            DeviceNotFoundError: for unknown ids.
            DecodingError: if some block lost too many shares to rebuild.
        """
        device = self.device(device_id)
        if device.state is DeviceState.OFFLINE:
            device.mark_online()
        else:
            device.replace()
        rebuilt = 0
        for address, position in self.sync_device(device_id):
            shares, _ = self.collect_shares(address)
            device.store(
                (address, position), self.rebuild_share(shares, position)
            )
            rebuilt += 1
        sink = obs.sink()
        if sink.enabled:
            registry = obs.metrics()
            registry.counter("cluster.devices_repaired").add(1)
            registry.counter("cluster.rebuilt_shares").add(rebuilt)
            sink.emit("device.repaired", device=device_id, rebuilt=rebuilt)
        return rebuilt

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Check the cluster's structural invariants.

        * every mapped share exists on its device, if that device serves;
        * the redundancy property holds (k distinct devices per block);
        * no serving device stores shares the map does not know about.

        Raises:
            AssertionError: on any violation — this is a test/debug API.
        """
        for address in self._map.addresses():
            placement = self._map.lookup(address)
            assert len(set(placement)) == len(placement), (
                f"redundancy violated for block {address}: {placement}"
            )
            for position, device_id in enumerate(placement):
                device = self._devices[device_id]
                if device.is_active:
                    assert device.holds((address, position)), (
                        f"share ({address},{position}) missing on {device_id}"
                    )
        mapped = {
            key
            for device_id in self._devices
            for key in self._map.shares_on(device_id)
        }
        for device_id, device in self._devices.items():
            if not device.is_active:
                continue
            for key in device.share_keys():
                assert key in mapped, (
                    f"orphan share {key} on device {device_id}"
                )
