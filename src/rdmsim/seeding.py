"""Deterministic per-trial seeds and generators.

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

Trial t draws from PCG64(seed).  numpy turns an integer seed into
PCG64's four state words with SeedSequence, a fixed 32-bit hash whose
constants do not depend on the seed.  trial_rngs runs the finalizer and
that hash as array operations over a whole range of trials at once and
builds each PCG64 from its precomputed words, so every stream is
bitwise the one PCG64(derive_seed(master, t)) gives.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ContractViolation

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence: a pool of 4 uint32 words, hashed with these
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def derive_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """uint64 seeds of trials lo..hi-1 of the stream `master_seed`."""
    z = np.arange(hi - lo, dtype=np.uint64)
    z *= _GOLDEN  # uint64 arrays wrap mod 2^64 without a warning
    z += (int(master_seed) + (int(lo) + 1) * _GOLDEN) & _MASK
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    return z ^ (z >> 31)


def derive_seed(master_seed: int, trial_index: int) -> int:
    """64-bit seed for trial `trial_index` of the stream `master_seed`."""
    return int(derive_seeds(master_seed, trial_index, trial_index + 1)[0])


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; its constant starts at
    const and is multiplied by mult at every call, whatever the data."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> 16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """(n, 4) uint64, C-ordered: row i is
    SeedSequence(seeds[i]).generate_state(4, np.uint64).

    SeedSequence splits a seed into little-endian uint32 words (one word
    below 2^32, two from there) and hashes them into a pool of 4; a
    missing word is hashed as 0, so every seed takes the two-word path.
    No constant depends on the data, so each step is one elementwise
    uint32 operation over all seeds.
    """
    # 1-d: uint32 arrays wrap mod 2^32 silently, where numpy scalars would warn
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    lo, hi = (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    zero = np.zeros_like(lo)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (lo, hi, zero, zero)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, uint64): 8 uint32 words cycling through the pool,
    # paired little-endian into uint64 words
    out = _hasher(_INIT_B, _MULT_B)
    w = [out(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    return np.stack([w[2 * j] | (w[2 * j + 1] << 32) for j in range(_POOL)], axis=1)


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed state words once,
    then drops them: the generator keeps no view of the words array."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        words, self.words = self.words, None
        return words


def trial_rngs(master_seed: int, lo: int, hi: int) -> list:
    """PCG64 generators of trials lo..hi-1, all seeds hashed at once; each
    is bitwise PCG64(derive_seed(master_seed, t))."""
    # PCG64 reads its 4 words from the row's memory: the rows are contiguous
    words = _seed_words(derive_seeds(master_seed, lo, hi))
    return [np.random.Generator(np.random.PCG64(_Words(w))) for w in words]


def check_seed(seed) -> int:
    """`seed` itself if it is an integer (not a bool) in [0, 2^64), else
    ContractViolation."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer))
                                      and 0 <= seed <= _MASK):
        raise ContractViolation(f"seed must be an integer in [0, 2^64), not {seed!r}")
    return seed


def seeded_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a seed in [0, 2^64)."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))
