"""Deterministic seed derivation so parallel sweeps cannot reorder randomness.

Seeds for grid points and trials are derived with SplitMix64: starting from
the base seed, each index is xor-folded in and passed through the SplitMix64
finalizer.  The derived 64-bit value seeds a PCG64 generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64", "stable_seed", "make_generator"]

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One SplitMix64 step: advance by the golden-gamma and finalize."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _word(x: int) -> int:
    x = int(x)
    if not 0 <= x <= _MASK:
        raise ValueError(f"seed value {x} is outside [0, 2**64)")
    return x


def stable_seed(base: int, *indices: int) -> int:
    """Fold a base seed and any number of integer indices into a 64-bit seed.

    Each must lie in [0, 2**64): masking a value outside would alias it to
    another (-3 to 2**64 - 3), so it raises ValueError instead.
    """
    h = splitmix64(_word(base))
    for idx in indices:
        h = splitmix64(h ^ _word(idx))
    return h


def make_generator(base: int, *indices: int) -> np.random.Generator:
    """PCG64 generator seeded from :func:`stable_seed`."""
    return np.random.Generator(np.random.PCG64(stable_seed(base, *indices)))
