"""Hierarchical Redundant Share: copies spread across failure domains.

A natural extension of the paper (its conclusion asks for strategies with
stronger structure): place the ``k`` copies of every block in ``k``
*distinct racks* (failure domains), so that losing an entire rack never
loses more than one copy — while keeping per-device fairness.

Construction: run Redundant Share over the racks (weights = rack capacity
sums, clipped for ``k``), then pick one device inside each selected rack
with an exactly fair single-copy rendezvous.  Fairness composes: a device
holding fraction ``f`` of its rack, in a rack deserving copy-probability
``k·c_R``, receives ``k·c_R·f = k·b_d/B`` of the copies — the same target
as flat Redundant Share (rack-level clipping permitting), now with rack
fault tolerance on top.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..placement.base import ReplicationStrategy
from ..placement.rendezvous import WeightedRendezvous
from ..types import BinSpec, Placement
from .redundant_share import RedundantShare


class HierarchicalRedundantShare(ReplicationStrategy):
    """Rack-aware k-replication: one copy per rack, fair per device."""

    name = "hierarchical-redundant-share"

    def __init__(
        self,
        racks: Mapping[str, Sequence[BinSpec]],
        copies: int = 2,
        namespace: str = "",
    ) -> None:
        """Build the two-level strategy.

        Args:
            racks: Failure domains: rack name -> device specs.  At least
                ``copies`` racks are required (one copy per rack).
            copies: Replication degree ``k``.
            namespace: Hash salt prefix.

        Raises:
            ConfigurationError: on empty racks, duplicate devices, or
                fewer racks than ``copies``.
        """
        if len(racks) < copies:
            raise ConfigurationError(
                f"need at least k={copies} racks, got {len(racks)}"
            )
        all_bins: List[BinSpec] = []
        rack_bins: List[BinSpec] = []
        self._rack_devices: Dict[str, List[BinSpec]] = {}
        for rack_name, devices in racks.items():
            devices = list(devices)
            if not devices:
                raise ConfigurationError(f"rack {rack_name!r} has no devices")
            self._rack_devices[rack_name] = devices
            all_bins.extend(devices)
            rack_bins.append(
                BinSpec(rack_name, sum(spec.capacity for spec in devices))
            )
        super().__init__(all_bins, copies, namespace)
        self._rack_strategy = RedundantShare(
            rack_bins, copies=copies, namespace=f"{self._namespace}/racks"
        )
        self._device_placers: Dict[str, WeightedRendezvous] = {
            rack_name: WeightedRendezvous(
                [spec.bin_id for spec in devices],
                [float(spec.capacity) for spec in devices],
                f"{self._namespace}/rack/{rack_name}",
            )
            for rack_name, devices in self._rack_devices.items()
        }
        self._rack_of = {
            spec.bin_id: rack_name
            for rack_name, devices in self._rack_devices.items()
            for spec in devices
        }

    def rack_of(self, device_id: str) -> str:
        """Failure domain of a device."""
        return self._rack_of[device_id]

    def place(self, address: int) -> Placement:
        """One device per selected rack; position i = rack-copy i."""
        rack_choice = self._rack_strategy.place(address)
        return tuple(
            self._device_placers[rack_name].place(address)
            for rack_name in rack_choice
        )

    def expected_shares(self) -> Dict[str, float]:
        """Exact composed shares: rack share x in-rack device share."""
        rack_shares = self._rack_strategy.expected_shares()
        shares: Dict[str, float] = {}
        for rack_name, devices in self._rack_devices.items():
            rack_total = sum(spec.capacity for spec in devices)
            for spec in devices:
                shares[spec.bin_id] = (
                    rack_shares[rack_name] * spec.capacity / rack_total
                )
        return shares
