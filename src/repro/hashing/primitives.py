"""Deterministic, process-stable hashing primitives.

All randomness in this library is *derived* rather than sampled: a placement
strategy asked where ball ``a`` lives computes hash values from the ball
address, the bin names and small integer salts.  This gives the three
properties the paper relies on:

* **Determinism** — the same question always gets the same answer, across
  processes and Python versions (unlike the built-in ``hash``, which is
  randomized per process for strings).
* **Independence** — distinct salts give (practically) independent values,
  which is how the O(k) variant of Section 3.3 realises its "O(k*n) hash
  functions".
* **Stability under change** — the hash for round ``i`` of LinMirror is keyed
  on the *name* of the bin at rank ``i``, so inserting an unrelated bin does
  not re-roll existing decisions; this is what bounds the adaptivity.

The mixer is the 64-bit finalizer of SplitMix64 / MurmurHash3, a well-studied
bijective avalanche function.  Strings are folded in via FNV-1a before
mixing.  Everything is pure Python, needs no dependencies, and is fast enough
for the simulation scales used in the paper's evaluation (millions of balls).

For *batch* placement the same pipeline is additionally exposed in array
form (:func:`splitmix64_array`, :func:`derive_bases`,
:func:`u64s_from_base`, :func:`units_from_base`): NumPy-only functions
that evaluate whole vectors per call, bit-for-bit identical to the scalar
functions.  Without NumPy their callers run the scalar functions in a
loop instead.

A word ``u`` maps to ``float(u) * 2**-64``, except the top 1 024 words,
which ``float`` rounds up to ``2**64``: they map to ``1 - 2**-53``, so
every draw is below 1 (:func:`_unit` / :func:`_units` on both legs).
:func:`u64_words` packs via ``array("L")``: ``"Q"`` reads wide ints bytewise.
"""

from __future__ import annotations

import functools
from array import array
from typing import List, Sequence, Union

from .._compat import get_numpy

_MASK64 = (1 << 64) - 1

#: 2**-64, used to map 64-bit integers onto [0, 1).
_INV_2_64 = 1.0 / float(1 << 64)

#: The first word ``float`` rounds to 2**64, and its draw instead of 1.0.
_ROUNDS_TO_ONE, _BELOW_ONE = (1 << 64) - 1024, 1.0 - 2.0**-53

_U64_TYPECODE = "L" if array("L").itemsize == 8 else "Q"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

HashablePart = Union[int, str, bytes]


def splitmix64(value: int) -> int:
    """Apply the SplitMix64 finalizer to a 64-bit integer.

    This is a bijection on 64-bit integers with full avalanche: flipping any
    input bit flips each output bit with probability ~1/2.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _fold_part(state: int, part: HashablePart) -> int:
    """Fold one part into the running FNV-1a state."""
    if isinstance(part, int):
        # Mix the integer through splitmix64 first so that small consecutive
        # integers (the common case: block addresses) are well spread before
        # being folded byte-wise.
        mixed = splitmix64(part & _MASK64)
        data = mixed.to_bytes(8, "little")
    elif isinstance(part, str):
        data = part.encode("utf-8")
    elif isinstance(part, bytes):
        data = part
    else:  # pragma: no cover - defensive, the annotation forbids this
        raise TypeError(f"unhashable part type: {type(part).__name__}")
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & _MASK64
    # Separate parts so that ("ab", "c") != ("a", "bc").
    state = ((state ^ 0xFF) * _FNV_PRIME) & _MASK64
    return state


def stable_u64(*parts: HashablePart) -> int:
    """Hash arbitrary parts (ints, strs, bytes) to a uniform 64-bit integer.

    The result depends on the values *and* the part boundaries, and is stable
    across processes and platforms.
    """
    state = _FNV_OFFSET
    for part in parts:
        state = _fold_part(state, part)
    return splitmix64(state)


def _unit(word: int) -> float:
    """A 64-bit word as a float in ``[0, 1)`` (see the module docstring)."""
    return word * _INV_2_64 if word < _ROUNDS_TO_ONE else _BELOW_ONE


def unit_interval(*parts: HashablePart) -> float:
    """Hash arbitrary parts to a float uniformly distributed in ``[0, 1)``."""
    return _unit(stable_u64(*parts))


def unit_interval_open(*parts: HashablePart) -> float:
    """Hash to a float in the *open* interval ``(0, 1)``.

    Useful where a subsequent ``log`` or division forbids exact zero or
    one (e.g. rendezvous hashing scores); word 0 maps to ``2**-64``.
    """
    return _unit(stable_u64(*parts) | 1)


def derive_base(*parts: HashablePart) -> int:
    """Precompute a 64-bit salt base for a fixed key prefix.

    Placement hot loops draw ``hash(namespace, bin, ..., address)`` per
    ball; folding the string prefix every time dominates the cost.  Derive
    the prefix once with this function and combine it with the per-ball
    integers via :func:`unit_from_base` — same independence, integer-only
    work per draw.
    """
    return stable_u64(*parts)


def prefixed_bases(prefix: Sequence[HashablePart], parts) -> List[int]:
    """``[derive_base(*prefix, part) for part in parts]``, folding the
    shared prefix once instead of once per part."""
    state = functools.reduce(_fold_part, prefix, _FNV_OFFSET)
    return [splitmix64(_fold_part(state, part)) for part in parts]


def u64_from_base(base: int, *values: int) -> int:
    """Combine a precomputed base with per-draw integers to a fresh u64."""
    state = base
    for value in values:
        state = splitmix64(state ^ splitmix64(value & _MASK64))
    return splitmix64(state)


def unit_from_base(base: int, *values: int) -> float:
    """Like :func:`unit_interval`, from a precomputed base (see
    :func:`derive_base`)."""
    return _unit(u64_from_base(base, *values))


def unit_from_base_open(base: int, *values: int) -> float:
    """Like :func:`unit_interval_open`, from a precomputed base."""
    return _unit(u64_from_base(base, *values) | 1)


def u64_words(values) -> array:
    """``values``, ints in ``[0, 2**64)``, as 8-byte native words in one C
    pass (``"L"`` where that is 8 bytes), raising as ``array`` does."""
    return array(_U64_TYPECODE, values)


# ----------------------------------------------------------------------
# Vectorized pipeline (NumPy only)
# ----------------------------------------------------------------------

#: Bound once: the array functions below are called only from code that
#: already chose its NumPy leg through :func:`repro._compat.get_numpy`.
np = get_numpy()

#: SplitMix64 stream increment, finalizer multipliers and shifts (the
#: constants of :func:`splitmix64`), built once and as 0-d ``uint64``
#: arrays rather than NumPy scalars: a ufunc re-wraps a scalar operand
#: on every call, which shows at small batch sizes.
if np is not None:
    _SM64_GOLDEN, _SM64_MULT1, _SM64_MULT2, _SHIFT30, _SHIFT27, _SHIFT31 = (
        np.array(constant, dtype=np.uint64)
        for constant in (
            0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
            30, 27, 31,
        )
    )


def int64_column(values):
    """A list, tuple or range as an ``int64`` column, faster than
    ``np.asarray``: its :func:`u64_words` if none reaches 2**63, else
    ``np.fromiter`` (``int(v)`` each).  Any other input, or one holding a
    value that is not an int64, comes back as it is for the exact path."""
    if isinstance(values, (list, tuple, range)):
        try:
            column = np.frombuffer(u64_words(values), np.int64)
            if column.min(initial=0) >= 0:  # an empty column passes too
                return column
        except (OverflowError, TypeError, ValueError):
            pass
        try:
            return np.fromiter(values, np.int64, count=len(values))
        except (OverflowError, TypeError, ValueError):
            pass
    return values


def as_u64_array(values: Sequence[int]):
    """Coerce an address sequence to a ``uint64`` NumPy array (mod 2^64),
    wrapping negatives exactly like the scalar functions' ``& _MASK64``:
    a list, tuple or range of int64s in one :func:`int64_column` pass; a
    ``uint64`` array or ``array('Q')`` zero-copy; another integer array
    as ``int64`` (a view if it is one); anything else (ints past int64,
    floats, strings) ``int(v) & _MASK64`` per value, raising as ``int``.
    """
    arr = np.asarray(int64_column(values))
    if arr.dtype == np.uint64:
        return arr
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False).view(np.uint64)
    return np.fromiter(
        (int(value) & _MASK64 for value in values), np.uint64, len(values)
    )


def splitmix64_array(values: Sequence[int], out=None, scratch=None):
    """Vectorized :func:`splitmix64`: a ``uint64`` array whose elements
    equal ``[splitmix64(v & 2**64-1) for v in values]`` exactly.

    ``out`` (a ``uint64`` array of the same shape, ``values`` itself
    included) receives the result instead of a fresh array, and
    ``scratch`` (another one) the shifts, so a chain of mixes over
    buffers the caller owns allocates nothing.
    """
    state = np.add(as_u64_array(values), _SM64_GOLDEN, out=out)
    state ^= np.right_shift(state, _SHIFT30, out=scratch)
    state *= _SM64_MULT1
    state ^= np.right_shift(state, _SHIFT27, out=scratch)
    state *= _SM64_MULT2
    state ^= np.right_shift(state, _SHIFT31, out=scratch)
    return state


def derive_bases(values: Sequence[int], *prefix: HashablePart):
    """Vectorized :func:`derive_base` with a last integer part: a ``uint64``
    array equal to ``[derive_base(*prefix, v) for v in values]``.  The
    prefix is folded once, each value's part as :func:`_fold_part` does."""
    mixed = splitmix64_array(values)
    state = functools.reduce(_fold_part, prefix, _FNV_OFFSET)
    states = np.full(mixed.shape, state, dtype=np.uint64)
    prime, byte = np.uint64(_FNV_PRIME), np.uint64(0xFF)
    for shift in range(0, 64, 8):
        states ^= (mixed >> np.uint64(shift)) & byte
        states *= prime
    states ^= byte
    states *= prime
    return splitmix64_array(states, out=states)


def u64s_from_base(base: int, values: Sequence[int]):
    """Vectorized :func:`u64_from_base` for one per-draw integer each: a
    ``uint64`` array equal to ``[u64_from_base(base, v) for v in values]``
    element-wise."""
    state = splitmix64_array(values)
    state ^= np.uint64(base & _MASK64)
    return splitmix64_array(splitmix64_array(state, out=state), out=state)


#: Exponent fields that turn a 32-bit half ``h`` of a word into the float
#: ``2**20 + h * 2**-32`` (high half) or ``2**-12 + h * 2**-64`` (low
#: half) when or-ed into the bits, and the sum of the two offsets.
_HIGH_FIELD, _LOW_FIELD = 0x4130000000000000, 0x3F30000000000000
_FIELD_OFFSETS = 2.0**20 + 2.0**-12
if np is not None:
    _SHIFT32, _LOW32, _HIGH_BITS, _LOW_BITS = (
        np.array(constant, dtype=np.uint64)
        for constant in (32, 0xFFFFFFFF, _HIGH_FIELD, _LOW_FIELD)
    )


def _units(words, out=None, scratch=None):
    """Vectorized :func:`_unit`, bit for bit, without NumPy's scalar-loop
    ``uint64 → float64`` cast.

    With ``h = u >> 32`` and ``l = u & 0xFFFFFFFF``, ``u * 2**-64`` is
    ``h * 2**-32 + l * 2**-64``.  Both terms are exact floats, each built
    by or-ing its half into the mantissa of a float with a fixed exponent
    (:data:`_HIGH_FIELD`, :data:`_LOW_FIELD`); subtracting the offsets from
    the high term is exact, so the one rounding is the final sum's —
    the rounding of ``float(u)``.  ``out`` (``float64``) and ``scratch``
    (``uint64``, the shape of ``words``) are allocated if not given;
    ``words`` is left unchanged.
    """
    if out is None:
        out = np.empty(np.shape(words), dtype=np.float64)
    high = np.right_shift(words, _SHIFT32, out=scratch)
    np.bitwise_or(high, _HIGH_BITS, out=high)
    low = out.view(np.uint64)
    np.bitwise_and(words, _LOW32, out=low)
    np.bitwise_or(low, _LOW_BITS, out=low)
    high = high.view(np.float64)
    np.subtract(high, _FIELD_OFFSETS, out=high)
    np.add(high, out, out=out)
    return np.minimum(out, _BELOW_ONE, out=out)


def units_from_base(base: int, values: Sequence[int]):
    """Vectorized :func:`unit_from_base`: one ``[0, 1)`` draw per value,
    bit-for-bit ``[unit_from_base(base, v) for v in values]``."""
    return _units(u64s_from_base(base, values))

