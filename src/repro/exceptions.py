"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Subclasses are intentionally
fine-grained: callers of the placement layer typically want to distinguish
"the configuration is infeasible" (a modelling error they must fix) from
"a lookup failed" (an internal invariant violation worth reporting upstream).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A strategy or cluster was built from an invalid configuration.

    Examples: duplicate bin identifiers, non-positive capacities, fewer bins
    than the requested replication degree.
    """


class InfeasibleRedundancyError(ConfigurationError):
    """A reconfiguration would leave the cluster unable to honour redundancy.

    Raised by the chaos/recovery layer when a shrink (device removal or
    permanent decommission) would violate Lemma 2.1 (``k * b_0 <= B``) on
    the surviving device set — or leave fewer than ``k`` devices at all —
    so a rebalance onto that set would either silently misplace copies or
    waste capacity the operator did not sign off on.  The attempted
    reconfiguration is rejected before any data moves.
    """


class DeviceUnavailableError(ReproError):
    """An operation needed a device that is currently unreachable.

    Distinct from :class:`DeviceNotFoundError` (the id is unknown) and from
    data loss (:class:`DecodingError`): the device exists and may hold the
    data, but it is crashed, offline, or was unreachable on every permitted
    attempt — e.g. a degraded read that found no live replica across all
    ``k`` positions.
    """


class RepairTimeoutError(ReproError):
    """A repair task exhausted its retry/backoff budget without completing.

    Carries enough context to requeue the share by hand; the recovery
    pipeline records (rather than raises) these by default so one flaky
    device cannot wedge a whole repair campaign.
    """

    def __init__(
        self, device_id: str, address: int, position: int, attempts: int
    ) -> None:
        super().__init__(
            f"repair of share ({address}, {position}) on {device_id!r} "
            f"gave up after {attempts} attempts"
        )
        self.device_id = device_id
        self.address = address
        self.position = position
        self.attempts = attempts


class ServiceError(ReproError):
    """Base class for errors raised by the network service layer.

    Everything under :mod:`repro.service` — the wire codec, the metastore
    and blockstore servers, and the client — raises subclasses of this, so
    a frontend can catch one class for "the service misbehaved" while still
    letting placement/configuration errors propagate unchanged.
    """


class BadFrameError(ServiceError):
    """A wire frame violated the length-prefixed JSON protocol.

    Raised for frames whose body is not valid JSON, frames with a zero
    length prefix, or buffers with trailing bytes after a complete frame.
    The two structural variants — a frame cut short and a frame larger
    than the negotiated maximum — have dedicated subclasses so servers can
    distinguish "peer went away mid-frame" from "peer is abusive".
    """


class TruncatedFrameError(BadFrameError):
    """A frame ended before its declared length was read.

    On a live connection this means the peer disconnected mid-frame; in
    the codec it means the buffer holds an incomplete frame and the caller
    should read more bytes before retrying.
    """


class OversizedFrameError(BadFrameError):
    """A frame declared a length above the protocol's maximum.

    The guard fires on the header alone — before any body bytes are read
    or allocated — so a malicious or corrupt length prefix cannot force
    the server to buffer gigabytes.
    """


class ServiceUnavailableError(ServiceError):
    """No endpoint could serve the request right now.

    The service-layer analogue of :class:`DeviceUnavailableError`: the
    request was well-formed and the data may well exist, but every
    endpoint that could answer — the metastore, or all ``k`` blockstores
    holding a copy position of the block — was unreachable or errored.
    Retrying later may succeed.
    """


class ChecksumMismatchError(ServiceError):
    """A blockstore payload failed checksum verification.

    Raised when stored bytes no longer match the checksum recorded at
    write time (silent corruption), or when a fetched payload does not
    match the checksum the server sent.  Clients treat an affected copy
    position like an unavailable one and fall back to the next.
    """


class PlacementError(ReproError):
    """An individual placement lookup could not be completed.

    This signals a broken internal invariant (e.g. a selection loop that ran
    off the end of the bin list) and should never occur in correct usage.
    """


class CapacityExceededError(ReproError):
    """A storage device was asked to hold more blocks than it can store."""


class DeviceNotFoundError(ReproError):
    """An operation referenced a device id that is not part of the cluster."""


class BlockNotFoundError(ReproError):
    """An operation referenced a block that has never been written."""


class DecodingError(ReproError):
    """An erasure code could not reconstruct the original data.

    Raised when more shares were lost than the code tolerates, or when the
    surviving shares are inconsistent.
    """
