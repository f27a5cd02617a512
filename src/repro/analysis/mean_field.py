"""Mean-field replication model, discretized to fleet epochs.

Following "Analysis of a Stochastic Model of Replication in Large
Distributed Storage Systems" (Sun et al., PAPERS.md), the state of a
replicated fleet is summarized by the *copy-count distribution*
``x = (x_0, ..., x_k)`` where ``x_c`` is the fraction of blocks with
exactly ``c`` surviving copies (shares, under an erasure code).  A block
below ``m`` shares — ``m`` is the code's ``data_shares``, 1 for
mirroring — is lost for good, and class ``0`` holds every lost block.

The fleet simulator (:mod:`repro.chaos.fleet`) advances in discrete
epochs: each epoch every device fails independently with probability
``p``, then a rate-limited repair sweep re-replicates the
lowest-redundancy blocks first.  Because a block's copies always sit on
*distinct* devices, the number of copies it loses in one epoch is
exactly ``Binomial(c, p)`` — so the mean-field recursion below is not an
approximation of the per-block dynamics, only of their independence
(placement couples blocks that share a device; at fleet scale the
coupling washes out, which is precisely the mean-field regime the paper
analyses).

One epoch of the recursion:

1. **Failure (binomial thinning).**  Mass moves down:
   ``x'_{c-j} += x_c * C(c, j) p^j (1-p)^{c-j}``; then the mass of
   classes ``1 .. m-1`` joins class ``0`` (lost).
2. **Priority repair.**  A budget of ``r`` (fraction of the fleet's
   blocks repairable per epoch) moves mass *up one class*, lowest
   classes first: for ``c = m .. k-1`` ascending, move
   ``min(x'_c, remaining)`` from ``x'_c`` to ``x'_{c+1}``.  This mirrors
   the simulator's sweep, which repairs at most one share per block per
   epoch and always serves the most-at-risk class first.

The fixed point of this recursion is the steady-state distribution the
simulator's observed copy-count histogram is validated against (by
total-variation distance).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

__all__ = [
    "mean_field_step",
    "mean_field_distribution",
    "total_variation",
]


def _validate(
    copies: int, p: float, repair_fraction: float, data_shares: int = 1
) -> None:
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if not 1 <= data_shares <= copies:
        raise ValueError("data_shares must be in [1, copies]")
    if not 0.0 <= p < 1.0:
        raise ValueError("failure_probability must be in [0, 1)")
    if repair_fraction < 0.0:
        raise ValueError("repair_fraction must be >= 0")


def mean_field_step(
    distribution: Sequence[float],
    failure_probability: float,
    repair_fraction: float,
) -> List[float]:
    """Advance the copy-count distribution by one epoch.

    Args:
        distribution: ``x_0 .. x_k`` (length ``k + 1``, sums to 1).
        failure_probability: Per-device failure probability this epoch.
        repair_fraction: Fraction of the block population repairable this
            epoch (fleet repair budget / total blocks).

    Returns:
        The next distribution as a new list (same length, same total
        mass — both properties are pinned by tests).
    """
    copies = len(distribution) - 1
    _validate(copies, failure_probability, repair_fraction)
    weights = _loss_weights(copies, failure_probability)
    return _step(distribution, weights, repair_fraction)


def _loss_weights(copies: int, p: float) -> List[List[float]]:
    """``[c][lost]``: the chance that ``c`` copies lose ``lost`` in one
    epoch, computed once per run rather than once per epoch."""
    q = 1.0 - p
    return [
        [math.comb(c, lost) * (p ** lost) * (q ** (c - lost))
         for lost in range(c + 1)]
        for c in range(copies + 1)
    ]


def _step(
    distribution, weights, repair_fraction: float, data_shares: int = 1
) -> List[float]:
    """One epoch (a zero contribution leaves a sum as it is, so neither an
    empty class nor ``p == 0`` needs a branch of its own)."""
    thinned = [0.0] * len(distribution)
    for c, mass in enumerate(distribution):
        for lost, weight in enumerate(weights[c]):
            thinned[c - lost] += mass * weight
    thinned[0] += sum(thinned[1:data_shares])  # below m shares: lost
    thinned[1:data_shares] = [0.0] * (data_shares - 1)
    remaining = repair_fraction
    for c in range(data_shares, len(distribution) - 1):
        if remaining <= 0.0:
            break
        moved = min(thinned[c], remaining)
        if moved <= 0.0:
            continue
        thinned[c] -= moved
        thinned[c + 1] += moved
        remaining -= moved
    return thinned


def mean_field_distribution(
    copies: int,
    failure_probability: float,
    repair_fraction: float,
    sample_epochs: Sequence[int],
    initial: Optional[Sequence[float]] = None,
    data_shares: int = 1,
) -> List[float]:
    """Predicted distribution averaged over ``sample_epochs``.

    The fleet simulator reports its steady-state histogram as the average
    of the samples in the second half of the run; passing the *same*
    epoch indices here produces the directly comparable mean-field
    prediction (compare with :func:`total_variation`).  ``data_shares``
    is ``m``: mass below ``m`` shares is lost (class ``0``).
    """
    _validate(copies, failure_probability, repair_fraction, data_shares)
    marks = sorted(set(int(epoch) for epoch in sample_epochs))
    if not marks or marks[0] < 0:
        raise ValueError("sample_epochs must be non-empty and >= 0")
    if initial is None:
        state = [0.0] * copies + [1.0]
    elif len(initial) != copies + 1:
        raise ValueError("initial must have length copies + 1")
    else:
        state = list(initial)
    weights = _loss_weights(copies, failure_probability)
    totals = [0.0] * (copies + 1)
    epoch = 0
    for mark in marks:
        while epoch < mark:
            state = _step(state, weights, repair_fraction, data_shares)
            epoch += 1
        for c in range(copies + 1):
            totals[c] += state[c]
    return [total / len(marks) for total in totals]


def total_variation(a: Sequence[float], b: Sequence[float]) -> float:
    """Total-variation distance ``0.5 * sum |a_c - b_c|`` in ``[0, 1]``."""
    if len(a) != len(b):
        raise ValueError("distributions must have the same length")
    return 0.5 * sum(abs(x - y) for x, y in zip(a, b))
