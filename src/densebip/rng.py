"""Seeded, platform-stable randomness.

Every stochastic routine in the package draws from ``stream(master_seed,
index)``: a SplitMix64 mix of the 64-bit master seed and the stream index
picks the seed of a ``random.Random`` (Mersenne Twister). CPython guarantees
that ``Random(n).random()`` yields the same sequence on every platform and
version, so each (seed, index) pair is reproducible everywhere, and indexed
trials can be evaluated in any order, thread, or process without changing
results.

Vertex sampling at rate 1/d goes through ``sampled_members``, which runs
CPython's own ``randrange(d)`` rejection loop on ``getrandbits`` inline: the
stream is consumed exactly as ``randrange(d)`` would consume it, and each
vertex is sampled with probability exactly 1/d.
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 increment


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit scramble."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed: int, index: int) -> int:
    """64-bit seed of stream `index` under `master_seed`."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return mix64((master_seed + _GOLDEN * (index + 1)) & _MASK64)


def stream(master_seed: int, index: int) -> random.Random:
    """Fresh deterministic generator for one indexed trial."""
    return random.Random(stream_seed(master_seed, index))


def sampled_members(rng, vertices, d: int) -> list[int]:
    """The members of `vertices`, in order, for which randrange(d) would draw 0.

    Each draw repeats ``getrandbits(d.bit_length())`` until it is below d, as
    ``Random.randrange(d)`` does, so `rng` ends in the same state as after one
    ``randrange(d)`` call per vertex.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    getrandbits = rng.getrandbits
    k = d.bit_length()
    out = []
    for v in vertices:
        r = getrandbits(k)
        while r >= d:
            r = getrandbits(k)
        if not r:
            out.append(v)
    return out
