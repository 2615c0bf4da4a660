"""Seeded, platform-stable randomness.

Every stochastic routine in the package draws from ``stream(master_seed,
index)``: a SplitMix64 mix of the 64-bit master seed and the stream index
picks the seed of a ``random.Random`` (Mersenne Twister). CPython guarantees
that ``Random(n).random()`` yields the same sequence on every platform and
version, so each (seed, index) pair is reproducible everywhere, and indexed
trials can be evaluated in any order, thread, or process without changing
results.

A stream is a ``_Stream``, the ``random.Random`` subclass whose ``__init__``
is the C ``_random.Random.__init__``. For an int seed ``Random(n)`` runs the
Python ``__init__`` and ``seed`` only to reach that same C seeding, then sets
``gauss_next = None``, which ``_Stream`` holds as a class attribute, and it
pickles as the ``Random`` it equals. So a stream has the same state,
sequences and pickle bytes as ``Random(n)`` while skipping two Python frames
of its set-up, about 1 of the 7 µs a stream costs; the Mersenne Twister's own
seeding is the rest. ``random`` imports ``_random`` already, so this costs no
import.

Vertex sampling at rate 1/d goes through ``sampled_members``, which runs
CPython's own ``randrange(d)`` rejection loop on ``getrandbits``: the stream is
consumed exactly as ``randrange(d)`` would consume it, and each vertex is
sampled with probability exactly 1/d. For d < 256 it first draws one block of
32-bit Mersenne Twister words, one per vertex, and classifies the words by
their top byte in C; the rejection loop finishes the vertices the block did not.
"""

from __future__ import annotations

import random
from functools import lru_cache

import _random

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


class _Stream(random.Random):
    """``random.Random`` seeded in C: ``_Stream(n)`` equals ``Random(n)`` for an int n."""

    __init__ = _random.Random.__init__
    gauss_next = None

    def __reduce__(self):
        return random.Random, (), self.getstate()


def stream(master_seed: int, index: int) -> random.Random:
    """Fresh deterministic generator for one indexed trial."""
    return _Stream(stream_seed(master_seed, index))


@lru_cache
def _top_byte_draws(d: int) -> tuple[bytes, bytes]:
    """For 1 <= d < 256: which top bytes of a 32-bit word draw 0, and which are rejected.

    getrandbits(k) keeps the top k = d.bit_length() <= 8 bits of its word, so
    the draw is the top byte shifted down by 8 - k. The table maps a top byte
    to 1 when that draw is 0 and to 0 otherwise; the second value lists the
    top bytes whose draw is >= d.
    """
    shift = 8 - d.bit_length()
    return bytes(b >> shift == 0 for b in range(256)), bytes(range(d << shift, 256))


def sampled_members(rng, vertices, d: int) -> list[int]:
    """The members of the sequence `vertices`, in order, for which
    randrange(d) would draw 0.

    Each draw repeats ``getrandbits(d.bit_length())`` until it is below d, as
    ``Random.randrange(d)`` does, so `rng` ends in the same state as after one
    ``randrange(d)`` call per vertex. For d < 256 the first draws come from
    one ``getrandbits(32 * len(vertices))`` block, whose word i is the i-th
    32-bit word a ``getrandbits(k <= 32)`` call would shift down to k bits. So
    `rng` must be a ``random.Random``, or give the same words for any
    ``getrandbits(k)``.

    A block of n words holds at most n accepted draws: the j-th accepted word
    is vertex j's, and trailing rejected words belong to the first vertex not
    finished, whose rejection loop continues from there.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    getrandbits = rng.getrandbits
    k = d.bit_length()
    n = len(vertices)
    out = []
    done = 0
    if k <= 8 and n:
        sampled, rejected = _top_byte_draws(d)
        # word i's top byte; dropping the rejected ones leaves one flag per finished vertex
        flags = getrandbits(32 * n).to_bytes(4 * n, "little")[3::4].translate(sampled, rejected)
        done = len(flags)
        i = flags.find(1)
        while i >= 0:
            out.append(vertices[i])
            i = flags.find(1, i + 1)
    for v in vertices[done:]:
        r = getrandbits(k)
        while r >= d:
            r = getrandbits(k)
        if not r:
            out.append(v)
    return out
