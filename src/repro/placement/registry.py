"""Name-keyed registry of the batch-placeable replication strategies.

One place that knows how to build every strategy from a name, a flat bin
list and a replication degree — the CLI, the benches and the e2e
harness all iterate the same table instead of each keeping a private
(and inevitably diverging) list.  Strategies whose constructors need
extra topology (the hierarchical variant wants racks) are deliberately
absent: they cannot be built from a flat bin list.

Two things make the table expressive enough for the full zoo:

* **Typed per-strategy options.**  Each :class:`StrategyEntry` declares
  an :class:`~repro.options.OptionSpec` schema for whatever its
  constructor needs beyond ``(bins, copies)`` — RPDP's per-device
  service rates, Sequential Checking's device generations, weighted
  striping's pattern resolution.  :func:`create` validates keyword
  options against the schema (unknown keys, wrong types and options
  passed to a strategy that declares none all raise
  :class:`~repro.exceptions.ConfigurationError`) and fills defaults, so
  no consumer needs a private construction path.

* **Capability flags.**  ``supports_scale_out``, ``movement_class`` and
  ``heterogeneity_aware`` describe what each strategy guarantees, so
  sweeps (the trade-off bench, ``repro compare``) can select and label
  contenders without hard-coding knowledge about them.

:func:`create` is the **canonical public factory**: every consumer that
builds a strategy from a name — the CLI, ``repro stats``, ``repro
chaos``, ``repro serve``, the benches — goes through it, so name
resolution, alias handling, fixed-``copies`` strategies and option
validation behave identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..options import OptionSpec, Registry
from ..types import BinSpec
from .base import ReplicationStrategy

#: Factories receive the *resolved* options dict (defaults filled,
#: values validated) as their third argument.
Factory = Callable[
    [Sequence[BinSpec], int, Mapping[str, Any]], ReplicationStrategy
]

#: Accepted ``movement_class`` values, best to worst: ``zero`` (adding
#: devices moves nothing), ``bounded`` (the paper's competitive-factor
#: family), ``proportional`` (hash-based ~1/n churn), ``full`` (the
#: pattern is rebuilt; nearly everything moves).
MOVEMENT_CLASSES = ("zero", "bounded", "proportional", "full")


@dataclass(frozen=True)
class StrategyEntry:
    """How to build one registered strategy and what to expect of it."""

    name: str
    factory: Factory
    #: Replication degree baked into the algorithm (LinMirror is k = 2 by
    #: definition); ``None`` means the ``copies`` argument is honoured.
    fixed_copies: Optional[int] = None
    #: Shared-kernel family the batch engine is built on (see
    #: :mod:`repro.placement.kernels`); mirrors
    #: :attr:`ReplicationStrategy.kernel` so reports need not build an
    #: instance to label the engine.  ``None``: no engine, the generic
    #: per-address loop even with NumPy.
    kernel: Optional[str] = None
    aliases: Tuple[str, ...] = field(default=())
    #: Typed schema of the strategy's extra constructor parameters;
    #: empty means ``create`` accepts no keyword options for this entry.
    options: Tuple[OptionSpec, ...] = field(default=())
    #: Whether adding devices to an existing deployment is a supported
    #: operation, i.e. movement stays within ``movement_class`` instead
    #: of degenerating to a rebuild.
    supports_scale_out: bool = True
    #: Expected data movement when a device is added (see
    #: :data:`MOVEMENT_CLASSES`).
    movement_class: str = "proportional"
    #: Whether the strategy targets the Lemma 2.2 clipped fair shares on
    #: heterogeneous bins (the trivial baseline provably misses them,
    #: Lemma 2.4).
    heterogeneity_aware: bool = True

    def __post_init__(self) -> None:
        if self.movement_class not in MOVEMENT_CLASSES:
            raise ValueError(
                f"movement_class must be one of {MOVEMENT_CLASSES}, "
                f"got {self.movement_class!r}"
            )

    @property
    def vectorized(self) -> bool:
        """True when ``place_many`` runs a NumPy engine (given NumPy is
        importable); the generic per-address loop is then what runs
        without NumPy and for configurations the engine does not cover,
        which the factories below never build."""
        return self.kernel is not None

    def build(
        self,
        bins: Sequence[BinSpec],
        copies: int,
        options: Optional[Mapping[str, Any]] = None,
    ) -> ReplicationStrategy:
        """Instantiate for ``bins``, honouring the fixed degree and schema.

        ``options`` are validated against :attr:`options` (defaults
        filled) before the factory runs; see
        :func:`repro.options.resolve_options` for the error contract.
        """
        resolved = _REGISTRY.resolve(self, options)
        return self.factory(bins, self.effective_copies(copies), resolved)

    def effective_copies(self, copies: int) -> int:
        """The replication degree actually used for a requested ``copies``."""
        return self.fixed_copies if self.fixed_copies is not None else copies


def _entries() -> List[StrategyEntry]:
    # Imported lazily so ``repro.placement`` does not pull in ``repro.core``
    # at package-import time (core imports placement, not vice versa).
    from ..core.balanced_rendezvous import BalancedRendezvous
    from ..core.classic import ClassicLinMirror
    from ..core.fast_variant import FastRedundantShare
    from ..core.redundant_share import LinMirror, RedundantShare
    from ..core.sequential_checking import SequentialChecking
    from .crush import CrushStrategy
    from .rpdp import ResidualPerformancePlacement
    from .striping import WeightedStripingStrategy
    from .trivial import TrivialReplication

    return [
        StrategyEntry(
            "redundant-share",
            lambda bins, copies, opts: RedundantShare(bins, copies=copies),
            kernel=RedundantShare.kernel,
            movement_class="bounded",
        ),
        StrategyEntry(
            "lin-mirror",
            lambda bins, copies, opts: LinMirror(bins),
            fixed_copies=2,
            kernel=LinMirror.kernel,
            movement_class="bounded",
        ),
        StrategyEntry(
            "fast-redundant-share",
            lambda bins, copies, opts: FastRedundantShare(
                bins, copies=copies
            ),
            kernel=FastRedundantShare.kernel,
            aliases=("fast",),
            movement_class="bounded",
        ),
        StrategyEntry(
            "trivial",
            lambda bins, copies, opts: TrivialReplication(
                bins, copies=copies
            ),
            kernel=TrivialReplication.kernel,
            movement_class="proportional",
            heterogeneity_aware=False,
        ),
        StrategyEntry(
            "classic-lin-mirror",
            lambda bins, copies, opts: ClassicLinMirror(bins),
            fixed_copies=2,
            kernel=ClassicLinMirror.kernel,
            movement_class="bounded",
        ),
        StrategyEntry(
            "crush",
            lambda bins, copies, opts: CrushStrategy(bins, copies=copies),
            kernel=CrushStrategy.kernel,
            movement_class="proportional",
        ),
        StrategyEntry(
            "weighted-striping",
            lambda bins, copies, opts: WeightedStripingStrategy(
                bins, copies=copies, resolution=opts["resolution"]
            ),
            kernel=WeightedStripingStrategy.kernel,
            aliases=("striping",),
            options=(
                OptionSpec(
                    "resolution",
                    "int",
                    default=64,
                    minimum=1,
                    doc="average pattern slots per disk (fairness/memory "
                    "trade-off)",
                ),
            ),
            supports_scale_out=False,
            movement_class="full",
        ),
        StrategyEntry(
            "balanced-rendezvous",
            lambda bins, copies, opts: BalancedRendezvous(
                bins, copies=copies
            ),
            kernel=BalancedRendezvous.kernel,
            movement_class="proportional",
        ),
        StrategyEntry(
            "sequential-checking",
            lambda bins, copies, opts: SequentialChecking(
                bins,
                copies=copies,
                generations=opts["generations"],
                overflow=opts["overflow"],
            ),
            kernel=SequentialChecking.kernel,
            aliases=("seq-check",),
            options=(
                OptionSpec(
                    "generations",
                    "ints",
                    default=None,
                    minimum=1,
                    doc="device-group sizes in addition order (must sum to "
                    "the bin count); default: one generation per device",
                ),
                OptionSpec(
                    "overflow",
                    "str",
                    default="wrap",
                    choices=("wrap", "error"),
                    doc="what to do with addresses beyond the capacity "
                    "limit: fold them back into the address space, or "
                    "raise",
                ),
            ),
            movement_class="zero",
        ),
        StrategyEntry(
            "rpdp",
            lambda bins, copies, opts: ResidualPerformancePlacement(
                bins,
                copies=copies,
                service_rates=opts["service_rates"],
            ),
            kernel=ResidualPerformancePlacement.kernel,
            aliases=("residual-performance",),
            options=(
                OptionSpec(
                    "service_rates",
                    "weights",
                    default=None,
                    doc="per-device service rates, positional or keyed by "
                    "bin id; default: the capacities",
                ),
            ),
            movement_class="proportional",
        ),
    ]


_REGISTRY = Registry("strategy", "strategy", _entries)


def registered_strategies() -> List[StrategyEntry]:
    """All entries in registration order."""
    return list(_REGISTRY.entries())


def strategy_names(include_aliases: bool = False) -> List[str]:
    """Accepted names, canonical first, optionally with aliases.

    Sweeps (benches, ``repro compare``) must iterate the default
    alias-free form: every canonical name appears exactly once, so no
    strategy is run twice under two spellings.
    """
    return _REGISTRY.names(include_aliases)


def lookup(name: str) -> StrategyEntry:
    """The entry for a canonical name or alias.

    Raises:
        ConfigurationError: when unknown, listing the canonical names.
    """
    return _REGISTRY.lookup(name)


def create(
    name: str,
    bins: Sequence[BinSpec],
    *,
    copies: int = 2,
    **options: Any,
) -> ReplicationStrategy:
    """Build the strategy registered under ``name`` (or an alias).

    This is the canonical construction path for every name-addressed
    strategy: it resolves aliases, honours fixed replication degrees
    (``lin-mirror`` is k = 2 whatever was requested), validates keyword
    options against the entry's typed schema and builds with the
    registry's uniform shape.  Prefer it over importing and
    instantiating strategy classes ad hoc — call sites built through
    the registry keep working when entries are renamed or
    re-parameterised.

    Args:
        name: Canonical strategy name or alias (see :func:`strategy_names`).
        bins: Device specs to place over.
        copies: Requested replication degree ``k`` (keyword-only; ignored
            by strategies with a fixed degree).
        **options: Per-strategy options declared by the entry's schema,
            e.g. ``create("rpdp", bins, copies=3, service_rates=(4, 2, 1))``
            or ``create("weighted-striping", bins, resolution=128)``.

    Raises:
        ConfigurationError: for unknown names (listing the accepted
            ones), unknown or ill-typed options, or if the entry rejects
            the bins/copies combination.
    """
    return lookup(name).build(bins, copies, options)
