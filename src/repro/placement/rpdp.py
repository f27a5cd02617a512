"""Residual-performance placement (RPDP) for heterogeneous fleets.

Pakana et al.'s RPDP (arXiv 2304.08692; see PAPERS.md) places replicas
by each node's *residual performance* — how much service rate it has
left — rather than by raw storage capacity, so a fleet mixing fast and
slow devices equalises **load** instead of bytes.  This reproduction
fits that idea into the repo's strategy model:

* Each device carries a ``service_rate`` (requests it can serve per
  unit time), defaulting to its capacity.  RPDP then races the Lemma 2.2
  *clipped* capacities while the trivial baseline races the raw ones, so
  the two coincide only when nothing is clipped (``4,2,1,1`` at k = 2);
  on ``1000,100,100,100`` at k = 2 RPDP is 10.0 % from fair, trivial
  1.9 %.
* Copy draws are the proven masked-rendezvous engine of
  :class:`~repro.placement.trivial.TrivialReplication`, but weighted by
  **rate shares** instead of capacity shares: a device's probability of
  winning a draw tracks the service it can absorb, so expected
  utilisation (copies held over rate) is flat across the fleet.
* Rate shares are first clipped at the Lemma 2.2 water-fill limit,
  preventing a single fast device from being asked to hold more than
  one copy of a ball — the same redundancy argument the capacity-side
  strategies obey.

The scalar/vectorized equivalence, the tie-guard contract and the exact
``expected_shares`` are inherited from the trivial engine; only the
weight vector differs.  :func:`utilization` is the load metric the
trade-off bench's heterogeneity gate checks: RPDP's peak utilisation
must not exceed a capacity-only placement's on a skewed-rate fleet.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from ..exceptions import ConfigurationError
from ..hashing.primitives import derive_base
from ..metrics.stats import fair_copy_shares
from .trivial import TrivialReplication

Rates = Union[Sequence[float], Mapping[str, float]]


class ResidualPerformancePlacement(TrivialReplication):
    """k sequential draws weighted by per-device service-rate shares."""

    name = "rpdp"
    kernel = "masked-hrw"

    def __init__(
        self,
        bins,
        copies: int = 2,
        namespace: str = "",
        service_rates: Optional[Rates] = None,
    ):
        """Reweight the trivial engine's draws by service rates.

        Args:
            bins: Device specs (capacities still validate redundancy).
            copies: Replication degree ``k``.
            namespace: Salt prefix (defaults to the strategy name, so
                draws are independent of the trivial baseline's).
            service_rates: Per-device rates, either positional (aligned
                with ``bins``) or keyed by bin id covering every bin.
                ``None`` uses the capacities.
        """
        super().__init__(bins, copies, namespace)
        self._rates = self._resolve_rates(service_rates)
        weights = fair_copy_shares(self._rates, self._copies)
        # Same (draw, bin) salt layout as the parent engine, reweighted;
        # bases are re-derived (not reused) because the namespace differs.
        self._draw_entries = [
            [
                (
                    spec.bin_id,
                    weights[spec.bin_id],
                    derive_base(
                        self._namespace, "draw", draw, spec.bin_id
                    ),
                )
                for spec in self._bins
            ]
            for draw in range(self._copies)
        ]

    def _resolve_rates(
        self, service_rates: Optional[Rates]
    ) -> Dict[str, float]:
        if service_rates is None:
            return {
                spec.bin_id: float(spec.capacity) for spec in self._bins
            }
        if isinstance(service_rates, Mapping):
            ids = {spec.bin_id for spec in self._bins}
            missing = sorted(ids - set(service_rates))
            extra = sorted(set(service_rates) - ids)
            if missing or extra:
                raise ConfigurationError(
                    f"service_rates must cover exactly the bin ids; "
                    f"missing {missing}, unknown {extra}"
                )
            rates = {
                bin_id: float(service_rates[bin_id]) for bin_id in ids
            }
        else:
            if len(service_rates) != len(self._bins):
                raise ConfigurationError(
                    f"got {len(service_rates)} service rates for "
                    f"{len(self._bins)} bins"
                )
            rates = {
                spec.bin_id: float(rate)
                for spec, rate in zip(self._bins, service_rates)
            }
        if any(rate <= 0 for rate in rates.values()):
            raise ConfigurationError("service rates must be positive")
        return rates

    @property
    def service_rates(self) -> Dict[str, float]:
        """The per-device service rates this placement equalises over."""
        return dict(self._rates)

    def expected_load(self) -> Dict[str, float]:
        """Analytic utilisation per device: copy share over rate share.

        ``1.0`` everywhere means load perfectly tracks serving power;
        this is the quantity RPDP flattens and capacity-only placement
        skews on rate-heterogeneous fleets.
        """
        return utilization(self.expected_shares(), self._rates)


def utilization(
    copy_shares: Mapping[str, float], rates: Mapping[str, float]
) -> Dict[str, float]:
    """Per-device load relative to serving power.

    ``utilization[i] = (share_i of all copies) / (rate_i / total_rate)``
    — the factor by which device ``i`` is busier than a perfectly
    load-balanced fleet.  Accepts copy *counts* as well as shares (the
    normalisation cancels).  This is the metric behind the trade-off
    bench's heterogeneity gate.
    """
    share_total = sum(copy_shares.values())
    rate_total = sum(rates.values())
    if share_total <= 0 or rate_total <= 0:
        raise ValueError("shares and rates must have positive totals")
    return {
        bin_id: (share / share_total) / (rates[bin_id] / rate_total)
        for bin_id, share in copy_shares.items()
    }
