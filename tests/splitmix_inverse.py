"""SplitMix64 inverted: addresses (and salt bases) whose hash word is
chosen in advance.

The finalizer is a bijection — an add, two odd multiplies and three
xor-shifts, each invertible — so the address whose
``u64_from_base(base, address)`` is a given word can be computed, not
searched for.  Tests use it to put a draw exactly on a threshold, or on
the top words that ``float`` rounds up to ``2**64``.
"""

from repro.hashing.primitives import splitmix64

MASK = 2**64 - 1
GOLDEN, MULT1, MULT2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _unxorshift(value, shift):
    """Invert ``value ^ (value >> shift)``."""
    result = value
    for _ in range(64 // shift + 1):
        result = value ^ (result >> shift)
    return result


def unsplitmix64(value):
    """The ``x`` in ``[0, 2**64)`` with ``splitmix64(x) == value``."""
    value = _unxorshift(value, 31)
    value = (value * pow(MULT2, -1, 2**64)) & MASK
    value = _unxorshift(value, 27)
    value = (value * pow(MULT1, -1, 2**64)) & MASK
    value = _unxorshift(value, 30)
    return (value - GOLDEN) & MASK


def address_for_word(base, word):
    """The address with ``u64_from_base(base, address) == word``."""
    return unsplitmix64(unsplitmix64(unsplitmix64(word)) ^ base)


def base_for_word(value, word):
    """The salt base with ``u64_from_base(base, value) == word``."""
    return unsplitmix64(unsplitmix64(word)) ^ splitmix64(value & MASK)
