"""A simulated block storage device.

Devices store *shares*: the (address, copy-position) pieces an erasure code
produces for a block.  Capacity is counted in shares, matching the paper's
model where a bin stores up to ``b_i`` ball copies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..exceptions import BlockNotFoundError, CapacityExceededError

#: A share key: (block address, copy position).
ShareKey = Tuple[int, int]


class DeviceState(enum.Enum):
    """Availability of a device — the one model every layer reads.

    ACTIVE and FLAKY serve I/O (:attr:`StorageDevice.is_active`); OFFLINE
    is a transient outage (contents intact, unreachable); FAILED is a
    crash (contents lost), left only by :meth:`StorageDevice.replace`.
    """

    ACTIVE = "active"
    FLAKY = "flaky"
    OFFLINE = "offline"
    FAILED = "failed"


@dataclass(frozen=True)
class FlakyProfile:
    """Error behaviour of a device in the FLAKY state.

    Attributes:
        error_rate: Probability in [0, 1) that one operation against the
            device fails and must be retried.
        latency: Extra time units each operation costs.
    """

    error_rate: float
    latency: float = 0.0


_SERVING = (DeviceState.ACTIVE, DeviceState.FLAKY)


class StorageDevice:
    """One storage device ("bin") holding share payloads."""

    def __init__(self, device_id: str, capacity: int) -> None:
        """Create an empty device.

        Args:
            device_id: Unique stable name.
            capacity: Maximum number of shares the device can hold.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._device_id = device_id
        self._capacity = capacity
        self._shares: Dict[ShareKey, bytes] = {}
        self._state = DeviceState.ACTIVE
        self._profile: Optional[FlakyProfile] = None

    @property
    def device_id(self) -> str:
        """The device name."""
        return self._device_id

    @property
    def capacity(self) -> int:
        """Maximum shares storable."""
        return self._capacity

    @property
    def used(self) -> int:
        """Shares currently stored."""
        return len(self._shares)

    @property
    def fill_fraction(self) -> float:
        """``used / capacity`` (the Figure 2/4 quantity, as a fraction)."""
        return self.used / self._capacity

    @property
    def state(self) -> DeviceState:
        """The device's availability."""
        return self._state

    @property
    def is_active(self) -> bool:
        """True when the device serves I/O (ACTIVE, or FLAKY)."""
        return self._state in _SERVING

    @property
    def profile(self) -> Optional[FlakyProfile]:
        """The flaky profile, or None unless the device is FLAKY."""
        return self._profile

    def store(self, key: ShareKey, payload: bytes) -> None:
        """Store (or overwrite) a share.

        Raises:
            CapacityExceededError: if the device is full.
            IOError: if the device does not serve I/O.
        """
        self._check_active("store")
        if key not in self._shares and self.used >= self._capacity:
            raise CapacityExceededError(
                f"device {self._device_id!r} is full "
                f"({self.used}/{self._capacity} shares)"
            )
        self._shares[key] = bytes(payload)

    def fetch(self, key: ShareKey) -> bytes:
        """Read a share.

        Raises:
            BlockNotFoundError: if the share is not stored here.
            IOError: if the device does not serve I/O.
        """
        self._check_active("fetch")
        try:
            return self._shares[key]
        except KeyError:
            raise BlockNotFoundError(
                f"device {self._device_id!r} holds no share {key}"
            ) from None

    def discard(self, key: ShareKey) -> None:
        """Drop a share if present (idempotent)."""
        self._check_active("discard")
        self._shares.pop(key, None)

    def holds(self, key: ShareKey) -> bool:
        """True if the share is stored here (regardless of device state)."""
        return key in self._shares

    def share_keys(self) -> Iterator[ShareKey]:
        """Iterate the stored share keys (snapshot)."""
        return iter(list(self._shares))

    def mark_offline(self) -> None:
        """Open an outage: contents intact, no I/O until marked online."""
        self._transition(DeviceState.OFFLINE)

    def mark_flaky(self, profile: FlakyProfile) -> None:
        """Keep serving, but with an error/latency ``profile``."""
        self._transition(DeviceState.FLAKY, profile)

    def mark_online(self) -> None:
        """Close an outage or flaky window."""
        self._transition(DeviceState.ACTIVE)

    def _transition(
        self, state: DeviceState, profile: Optional[FlakyProfile] = None
    ) -> None:
        # A window opening or closing on a crashed device changes nothing:
        # only replace() leaves FAILED.
        if self._state is not DeviceState.FAILED:
            self._state = state
            self._profile = profile

    def fail(self) -> None:
        """Crash the device: contents become inaccessible and are lost."""
        self._state = DeviceState.FAILED
        self._profile = None
        self._shares.clear()

    def replace(self) -> None:
        """Swap in a fresh, empty device under the same name."""
        self._shares.clear()
        self._state = DeviceState.ACTIVE
        self._profile = None

    def _check_active(self, operation: str) -> None:
        if not self.is_active:
            raise IOError(
                f"cannot {operation} on {self._state.value} device "
                f"{self._device_id!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StorageDevice {self._device_id} {self.used}/{self._capacity} "
            f"{self._state.value}>"
        )
