"""Small shared helpers: deterministic seed splitting and rational parsing."""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    """One SplitMix64 round: advance the state by the golden gamma, then
    finalize (Steele, Lea and Flood, OOPSLA 2014)."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and a counter path.

    The master seed goes through its own SplitMix64 round before each path
    element is XORed in and mixed, so no path element cancels a bit of the
    master (the same (master, path) always yields the same child).  All
    randomness in the package flows from one 64-bit seed through this
    function: each experiment trial seeds one generator from
    ``split_seed(seed, trial)`` and each absorbing family one from
    ``split_seed(rng_seed)``, and draws everything else from it in sequence.
    """
    x = _mix(master & _MASK64)
    for p in path:
        x = _mix(x ^ (p & _MASK64))
    return x


def as_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, or decimal string.

    Floats are accepted but converted through their decimal repr so that
    "0.15" means 3/20 rather than the nearest binary float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")
