"""Storage policies: several redundancy classes over one device pool.

Real deployments mix redundancy levels — hot data mirrored three ways,
cold data erasure-coded — on the *same* disks.  :class:`PolicyStore`
composes one physical device pool with any number of named policies, each
a (strategy factory, erasure code) pair running its own placement and
block map; capacity is naturally shared because all policies store into
the same :class:`~repro.cluster.device.StorageDevice` objects.

Address spaces are partitioned per policy (high bits carry the policy
index) so the share keys of different policies never collide on a device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..erasure.base import ErasureCode
from ..exceptions import ConfigurationError, DeviceNotFoundError
from ..placement.base import ReplicationStrategy
from ..types import BinSpec
from .cluster import Cluster, StrategyFactory
from .device import StorageDevice

#: Address bits reserved for the client address within a policy.
_ADDRESS_BITS = 48
_ADDRESS_MASK = (1 << _ADDRESS_BITS) - 1


@dataclass(frozen=True)
class StoragePolicy:
    """One redundancy class.

    Attributes:
        name: Policy name, e.g. ``"hot-mirror"``.
        strategy_factory: Placement builder for this class.
        code: Erasure code for this class (None = mirroring at the
            strategy's degree).
    """

    name: str
    strategy_factory: StrategyFactory
    code: Optional[ErasureCode] = None


class PolicyStore:
    """A device pool shared by multiple named redundancy policies."""

    def __init__(
        self,
        devices: Sequence[BinSpec],
        policies: Sequence[StoragePolicy],
    ) -> None:
        """Assemble the pool and its policies.

        Raises:
            ConfigurationError: on duplicate policy names or empty input.
        """
        if not policies:
            raise ConfigurationError("at least one policy is required")
        names = [policy.name for policy in policies]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate policy names in {names}")
        self._pool: Dict[str, StorageDevice] = {
            spec.bin_id: StorageDevice(spec.bin_id, spec.capacity)
            for spec in devices
        }
        self._clusters: Dict[str, Cluster] = {}
        self._policy_index: Dict[str, int] = {}
        for index, policy in enumerate(policies):
            self._policy_index[policy.name] = index
            self._clusters[policy.name] = Cluster(
                devices,
                policy.strategy_factory,
                code=policy.code,
                shared_devices=self._pool,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def policy_names(self) -> List[str]:
        """Names of the configured policies."""
        return sorted(self._clusters)

    def cluster_for(self, policy: str) -> Cluster:
        """The per-policy cluster (advanced use).

        Raises:
            ConfigurationError: for unknown policy names.
        """
        try:
            return self._clusters[policy]
        except KeyError:
            raise ConfigurationError(f"unknown policy {policy!r}") from None

    def device(self, device_id: str) -> StorageDevice:
        """A device of the shared pool."""
        try:
            return self._pool[device_id]
        except KeyError:
            raise DeviceNotFoundError(f"no device {device_id!r}") from None

    def device_usage(self) -> Dict[str, int]:
        """Shares stored per device, across all policies."""
        return {
            device_id: device.used for device_id, device in self._pool.items()
        }

    def _global_address(self, policy: str, address: int) -> int:
        if not 0 <= address <= _ADDRESS_MASK:
            raise ValueError(
                f"address out of range 0..2^{_ADDRESS_BITS}-1: {address}"
            )
        return (self._policy_index_of(policy) << _ADDRESS_BITS) | address

    def _policy_index_of(self, policy: str) -> int:
        try:
            return self._policy_index[policy]
        except KeyError:
            raise ConfigurationError(f"unknown policy {policy!r}") from None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def write(self, policy: str, address: int, payload: bytes) -> None:
        """Store a block under the given redundancy policy."""
        self.cluster_for(policy).write(
            self._global_address(policy, address), payload
        )

    def read(self, policy: str, address: int) -> bytes:
        """Fetch a block written under the given policy."""
        return self.cluster_for(policy).read(
            self._global_address(policy, address)
        )

    def delete(self, policy: str, address: int) -> None:
        """Remove a block written under the given policy."""
        self.cluster_for(policy).delete(self._global_address(policy, address))

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------

    def add_device(self, spec: BinSpec) -> Dict[str, int]:
        """Add a device to the pool; every policy rebalances onto it.

        Returns:
            Shares moved per policy.
        """
        if spec.bin_id in self._pool:
            raise ConfigurationError(f"device {spec.bin_id!r} already exists")
        self._pool[spec.bin_id] = StorageDevice(spec.bin_id, spec.capacity)
        return {
            name: cluster.add_device(spec).moved_shares
            for name, cluster in self._clusters.items()
        }

    def fail_device(self, device_id: str) -> None:
        """Crash a pool device (affects every policy)."""
        self.device(device_id).fail()

    def repair_device(self, device_id: str) -> Dict[str, int]:
        """Replace and rebuild a device across all policies.

        Returns:
            Shares rebuilt per policy.
        """
        self.device(device_id).replace()
        return {
            name: cluster.rebuild_device(device_id)
            for name, cluster in self._clusters.items()
        }

    def verify(self) -> None:
        """Structural invariants across all policies, including that every
        stored share belongs to exactly one policy's map."""
        mapped = set()
        for cluster in self._clusters.values():
            cluster.verify()
            for device_id in cluster.device_ids():
                mapped.update(cluster.shares_on(device_id))
        for device_id, device in self._pool.items():
            if not device.is_active:
                continue
            for key in device.share_keys():
                assert key in mapped, (
                    f"orphan share {key} on pool device {device_id}"
                )
