"""Typed option schemas shared by the name-keyed registries.

Both registries — :mod:`repro.placement.registry` and
:mod:`repro.scheduling.registry` — build instances from a *name* plus a
uniform positional shape (``(bins, copies)`` / ``(device_ids, seed)``).
Strategies whose constructors need anything beyond that shape (RPDP's
per-device service rates, Sequential Checking's device generations,
weighted striping's pattern resolution) declare it here as a typed
:class:`OptionSpec`, so every consumer — the CLI's ``--strategy-opt``,
the service configs, the benches — validates and defaults extra
parameters identically instead of each growing a private construction
path.

The contract:

* unknown option keys raise :class:`~repro.exceptions.ConfigurationError`
  listing the declared options (or stating that none are declared);
* values of the wrong type raise ``ConfigurationError`` naming the
  expected kind;
* omitted options take their declared defaults;
* :func:`parse_option_text` turns the CLI's ``key=value`` strings into
  typed values using the same schema, so ``--strategy-opt`` needs no
  per-strategy parsing code.

:class:`Registry` is the name-keyed table both registries are instances
of: alias-aware lookup, the duplicate-free names sweep and the option
resolution of an entry are spelled here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .exceptions import ConfigurationError

#: Accepted ``kind`` values and the phrase used in error messages.
_KIND_PHRASES = {
    "int": "an integer",
    "str": "a string",
    "ints": "a sequence of integers",
    "weights": "a sequence of positive numbers (or a bin-id mapping)",
}


@dataclass(frozen=True)
class OptionSpec:
    """One declared per-strategy (or per-policy) option.

    Attributes:
        name: Keyword the option is passed as.
        kind: Value shape — one of ``int``, ``str``, ``ints`` (tuple of
            ints) or ``weights`` (tuple of positive floats, or a mapping
            from id to positive number).
        default: Value used when the option is omitted.  Not validated —
            ``None`` is the conventional "unset" marker.
        doc: One-line description (surfaced by docs and CLI errors).
        choices: For ``str`` kinds, the accepted values.
        minimum: For ``int`` kinds, the inclusive lower bound (applied
            element-wise to ``ints``).
    """

    name: str
    kind: str
    default: Any = None
    doc: str = ""
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_PHRASES:
            raise ValueError(f"unknown option kind {self.kind!r}")

    def validate(self, value: Any, owner: str) -> Any:
        """Return the normalized value, or raise ``ConfigurationError``."""
        label = f"option {self.name!r} of {owner}"
        kind = self.kind
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{label} must be {_KIND_PHRASES[kind]}, got {value!r}"
                )
            self._check_minimum(value, label)
            return value
        if kind == "str":
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"{label} must be {_KIND_PHRASES[kind]}, got {value!r}"
                )
            if self.choices is not None and value not in self.choices:
                raise ConfigurationError(
                    f"{label} must be one of {sorted(self.choices)}, "
                    f"got {value!r}"
                )
            return value
        if kind == "ints":
            if isinstance(value, (str, bytes, Mapping)) or not isinstance(
                value, Sequence
            ):
                raise ConfigurationError(
                    f"{label} must be {_KIND_PHRASES[kind]}, got {value!r}"
                )
            items = []
            for item in value:
                if isinstance(item, bool) or not isinstance(item, int):
                    raise ConfigurationError(
                        f"{label} must be {_KIND_PHRASES[kind]}, "
                        f"got element {item!r}"
                    )
                self._check_minimum(item, label)
                items.append(item)
            return tuple(items)
        # kind == "weights"
        if isinstance(value, Mapping):
            normalized: Dict[str, float] = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    raise ConfigurationError(
                        f"{label} mapping keys must be ids, got {key!r}"
                    )
                normalized[key] = self._weight(item, label)
            return normalized
        if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
            raise ConfigurationError(
                f"{label} must be {_KIND_PHRASES['weights']}, got {value!r}"
            )
        return tuple(self._weight(item, label) for item in value)

    def _weight(self, item: Any, label: str) -> float:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(
                f"{label} must hold numbers, got {item!r}"
            )
        if not item > 0:
            raise ConfigurationError(
                f"{label} must hold positive values, got {item!r}"
            )
        return float(item)

    def _check_minimum(self, value: Any, label: str) -> None:
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(
                f"{label} must be >= {self.minimum:g}, got {value!r}"
            )

    def parse_text(self, text: str, owner: str) -> Any:
        """Parse a CLI ``key=value`` string's value half into this kind."""
        label = f"option {self.name!r} of {owner}"
        kind = self.kind
        try:
            if kind == "int":
                return self.validate(int(text), owner)
            if kind == "ints":
                return self.validate(
                    [int(part) for part in text.split(",") if part.strip()],
                    owner,
                )
            if kind == "weights":
                return self.validate(
                    [
                        float(part)
                        for part in text.split(",")
                        if part.strip()
                    ],
                    owner,
                )
        except ValueError:
            raise ConfigurationError(
                f"{label} must be {_KIND_PHRASES[kind]}, got {text!r}"
            )
        return self.validate(text, owner)  # str


def resolve_options(
    schema: Sequence[OptionSpec],
    options: Optional[Mapping[str, Any]],
    owner: str,
) -> Dict[str, Any]:
    """Validate ``options`` against ``schema``; fill defaults.

    Args:
        schema: The declared options, in declaration order.
        options: Caller-supplied keyword options (may be None/empty).
        owner: Human-readable owner, e.g. ``"strategy 'rpdp'"`` — used
            in every error message.

    Raises:
        ConfigurationError: on unknown keys or invalid values.  A
            non-empty ``options`` against an empty schema reports that
            the owner declares no options.
    """
    supplied = dict(options or {})
    by_name = {spec.name: spec for spec in schema}
    unknown = sorted(set(supplied) - set(by_name))
    if unknown:
        if by_name:
            raise ConfigurationError(
                f"unknown option(s) {unknown} for {owner}; declared: "
                f"{sorted(by_name)}"
            )
        raise ConfigurationError(
            f"{owner} declares no options, got {unknown}"
        )
    resolved: Dict[str, Any] = {}
    for spec in schema:
        if spec.name in supplied:
            resolved[spec.name] = spec.validate(supplied[spec.name], owner)
        else:
            resolved[spec.name] = spec.default
    return resolved


def parse_option_text(
    schema: Sequence[OptionSpec],
    pairs: Sequence[str],
    owner: str,
) -> Dict[str, Any]:
    """Turn CLI ``key=value`` strings into a typed options dict.

    Unknown keys and malformed values raise ``ConfigurationError`` with
    the same messages as :func:`resolve_options`, so ``--strategy-opt``
    errors read identically to programmatic ones.  Returns only the
    supplied options (defaults are filled later by the registry).
    """
    by_name = {spec.name: spec for spec in schema}
    parsed: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, text = pair.partition("=")
        key = key.strip()
        if not separator or not key:
            raise ConfigurationError(
                f"strategy options must be key=value, got {pair!r}"
            )
        spec = by_name.get(key)
        if spec is None:
            if by_name:
                raise ConfigurationError(
                    f"unknown option(s) [{key!r}] for {owner}; declared: "
                    f"{sorted(by_name)}"
                )
            raise ConfigurationError(
                f"{owner} declares no options, got [{key!r}]"
            )
        parsed[key] = spec.parse_text(text, owner)
    return parsed


class Registry:
    """Name-keyed table of entries that declare an option schema.

    An entry is any object with ``name``, ``aliases`` and ``options``
    (a tuple of :class:`OptionSpec`); what else it carries — factories,
    capability flags — is the owning module's business.  ``noun`` names
    an entry in "unknown ..." errors (``"scheduling policy"``), ``owner``
    in option errors (``"policy"`` gives ``"policy 'random'"``), and
    ``load`` returns the entries in registration order; it runs on first
    use, so a table may name classes its module cannot import at
    package-import time.
    """

    def __init__(
        self, noun: str, owner: str, load: Callable[[], Sequence[Any]]
    ) -> None:
        self._noun = noun
        self._owner = owner
        self._load = load
        self._entries: Optional[Tuple[Any, ...]] = None

    def entries(self) -> Tuple[Any, ...]:
        """All entries, in registration order."""
        if self._entries is None:
            self._entries = tuple(self._load())
        return self._entries

    def names(
        self,
        include_aliases: bool = False,
        only: Optional[Callable[[Any], bool]] = None,
    ) -> List[str]:
        """Accepted names in registration order, each canonical name
        followed by its aliases if asked; ``only`` keeps the entries it
        returns true for."""
        names: List[str] = []
        for entry in self.entries():
            if only is None or only(entry):
                names.append(entry.name)
                if include_aliases:
                    names.extend(entry.aliases)
        return names

    def lookup(self, name: str) -> Any:
        """Resolve a canonical name or, failing that, an alias.

        Raises:
            ConfigurationError: when unknown, listing the canonical names
                (each once — aliases resolve but are not advertised as
                distinct entries).
        """
        for entry in self.entries():
            if name == entry.name:
                return entry
        for entry in self.entries():
            if name in entry.aliases:
                return entry
        raise ConfigurationError(
            f"unknown {self._noun} {name!r}; choose from "
            f"{sorted(self.names())}"
        )

    def resolve(
        self, entry: Any, options: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """``options`` validated against ``entry``'s schema, defaults
        filled; see :func:`resolve_options` for the error contract."""
        return resolve_options(
            entry.options, options, f"{self._owner} {entry.name!r}"
        )
