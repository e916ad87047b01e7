"""Deterministic per-trial seed derivation.

Ensemble runs derive one 64-bit seed per trial from a master seed with
the SplitMix64 finalizer.  The recipe is part of the tool's contract
(results must be identical however trials are batched), so it is
fixed integer arithmetic, not library-version-dependent:

    z = (master + (index + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    seed = z ^ (z >> 31)

SplitMix64's finalizer is a bijection on 64-bit words, so distinct trial
indices under one master seed can never collide.
"""

import numpy as np

from .errors import ContractViolation

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, trial_index: int) -> int:
    """64-bit seed for trial `trial_index` of the stream `master_seed`."""
    z = (int(master_seed) + (int(trial_index) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def check_seed(seed) -> int:
    """`seed` itself if it is an integer in [0, 2^64), else ContractViolation."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed <= _MASK):
        raise ContractViolation(f"seed must be an integer in [0, 2^64), not {seed!r}")
    return seed


def seeded_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a seed in [0, 2^64)."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent PCG64 generator for one trial."""
    return seeded_rng(derive_seed(master_seed, trial_index))
