"""Name → read-scheduler factory, mirroring ``placement.registry``.

Everything that takes a read policy by name — the CLI, the service
client, the benches — resolves it here, so policy names stay consistent
across layers and ablations can sweep ``scheduler_names()`` without
hard-coding a list.

Like the placement registry this is an instance of
:class:`repro.options.Registry`, so the surface matches: ``lookup``
raises :class:`~repro.exceptions.ConfigurationError` listing canonical
names (aliases resolve but are not advertised as distinct policies),
``create(name, ..., **options)`` validates keyword options against each
entry's typed :class:`~repro.options.OptionSpec` schema, and
``scheduler_names()`` / ``registered_schedulers()`` sweep without
duplicates.  No policy declares an option (``seed`` already salts the
randomised draws), so passing one is a configuration error, same as for
an option-free placement strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..options import OptionSpec, Registry
from .base import ReadScheduler
from .cache import LruCacheModel
from .policies import (
    LeastLoadedScheduler,
    PowerOfTwoScheduler,
    PrimaryScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from .water_filling import WaterFillingScheduler

@dataclass(frozen=True)
class SchedulerEntry:
    """One registered scheduling policy."""

    name: str
    factory: Callable[..., ReadScheduler]
    summary: str
    online: bool = True
    aliases: Tuple[str, ...] = field(default_factory=tuple)
    #: Typed schema of the policy's extra constructor parameters; empty
    #: means ``create`` accepts no keyword options for this entry.
    options: Tuple[OptionSpec, ...] = field(default=())

    def build(
        self,
        device_ids: Sequence[str],
        *,
        seed: int = 0,
        cache: Optional[LruCacheModel] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> ReadScheduler:
        """Instantiate the policy over ``device_ids``.

        ``options`` are validated against :attr:`options` (defaults
        filled) before the factory runs; see
        :func:`repro.options.resolve_options` for the error contract.
        """
        resolved = _REGISTRY.resolve(self, options)
        return self.factory(device_ids, seed=seed, cache=cache, **resolved)


_ENTRIES: Tuple[SchedulerEntry, ...] = (
    SchedulerEntry(
        name="primary",
        factory=PrimaryScheduler,
        summary="always the first available copy (ablation baseline)",
        aliases=("first",),
    ),
    SchedulerEntry(
        name="random",
        factory=RandomScheduler,
        summary="seeded uniform draw over the available copies",
    ),
    SchedulerEntry(
        name="round-robin",
        factory=RoundRobinScheduler,
        summary="per-address rotation over the available copies",
        aliases=("rotate", "round_robin"),
    ),
    SchedulerEntry(
        name="least-loaded",
        factory=LeastLoadedScheduler,
        summary="the copy on the device with the least accumulated load",
        aliases=("least_loaded", "ll"),
    ),
    SchedulerEntry(
        name="power-of-two",
        factory=PowerOfTwoScheduler,
        summary="two seeded candidates, route to the less loaded",
        aliases=("po2", "power_of_two", "power-of-two-choices"),
    ),
    SchedulerEntry(
        name="water-filling",
        factory=WaterFillingScheduler,
        summary="offline optimum baseline (whole stream, batch only)",
        online=False,
        aliases=("wf", "water_filling"),
    ),
)

_REGISTRY = Registry("scheduling policy", "policy", lambda: _ENTRIES)


def lookup(name: str) -> SchedulerEntry:
    """The entry for a canonical name or alias.

    Raises:
        ConfigurationError: when unknown, listing the canonical names.
    """
    return _REGISTRY.lookup(name)


def create(
    name: str,
    device_ids: Sequence[str],
    *,
    seed: int = 0,
    cache: Optional[LruCacheModel] = None,
    **options: Any,
) -> ReadScheduler:
    """Build the policy registered under ``name`` over ``device_ids``.

    Keyword options beyond ``seed``/``cache`` are validated against the
    entry's typed schema, exactly like the placement registry's
    ``create`` — unknown names, unknown option keys and ill-typed values
    all raise :class:`~repro.exceptions.ConfigurationError`.
    """
    return lookup(name).build(
        device_ids, seed=seed, cache=cache, options=options
    )


def scheduler_names(
    *, include_aliases: bool = False, online_only: bool = False
) -> Tuple[str, ...]:
    """Registered policy names, in registration order.

    Sweeps must iterate the default alias-free form: every canonical
    name appears exactly once, so no policy runs twice under two
    spellings.
    """
    return tuple(
        _REGISTRY.names(
            include_aliases, lambda entry: entry.online or not online_only
        )
    )


def registered_schedulers() -> Tuple[SchedulerEntry, ...]:
    """All registry entries, in registration order."""
    return _REGISTRY.entries()
