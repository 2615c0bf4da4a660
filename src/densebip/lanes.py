"""Tests over whole int32 arrays, run on the 32-bit lanes of one Python int.

SWAR, SIMD within a register (Lamport, CACM 1975): `pack` turns an
`array("i")` into one int whose 32-bit lane i holds element i, so a test of
every element is a few big-int operations, with no int object per element.
Every value here is a non-negative int32, so bit 31 of each lane is free as
a guard: in `((x | G) - y - ONE) & G`, with ONE holding 1 and G holding
2**31 in every lane, lane i keeps its guard bit exactly when x_i > y_i, and
no borrow crosses a lane. The graph reader checks each piece of edges with
a `Pairs`.
"""

from __future__ import annotations

import sys
from array import array

_BIG_ENDIAN = sys.byteorder == "big"


def pack(a: array) -> int:
    """The int whose 32-bit lane i holds a[i], for an int32 array of values >= 0."""
    if _BIG_ENDIAN:
        a = array(a.typecode, a)
        a.byteswap()
    return int.from_bytes(a, "little")


def _above(x: int, y: int, low: int, guard: int) -> int:
    """The guard bit of each lane of `guard` where x's lane exceeds y's, 0 bits
    elsewhere; `low` is guard - ONE, 2**31 - 1 in each of those lanes. Lanes of
    x and y above them may only borrow upwards, out of the result."""
    return (x + low - y) & guard


class Pairs:
    """The pairs (us[i], vs[i]) of two int32 arrays of ids >= 0, packed once.

    `forward` is whether us[i] < vs[i] for every i; the methods test the
    rest of what the graph reader needs to know of a piece of edges.
    """

    __slots__ = ("u", "v", "one", "low", "guard", "forward")

    def __init__(self, us: array, vs: array):
        self.u, self.v = pack(us), pack(vs)
        self.one = int.from_bytes(b"\1\0\0\0" * len(us), "little")
        self.guard = self.one << 31
        self.low = self.guard - self.one
        self.forward = _above(self.v, self.u, self.low, self.guard) == self.guard

    def below(self, n: int) -> bool:
        """Whether every id is below n, given 0 <= n < 2**31."""
        top, low, guard = n * self.one, self.low, self.guard
        return (_above(top, self.v, low, guard) == guard
                and (self.forward or _above(top, self.u, low, guard) == guard))

    def differ(self) -> bool:
        """Whether us[i] != vs[i] for every i."""
        return _above(self.u ^ self.v, 0, self.low, self.guard) == self.guard

    def rising(self) -> bool:
        """Whether the pairs strictly increase in lexicographic order.

        Pair i+1 follows pair i when its u is at least pair i's and its u or
        its v is larger. The packed ints shifted down by one lane put pair
        i+1 in lane i, set against pair i on the low k - 1 lanes.
        """
        low, guard = self.low >> 32, self.guard >> 32
        u, v = self.u, self.v
        nu, nv = u >> 32, v >> 32
        return (not _above(u, nu, low, guard)
                and _above(nu, u, low, guard) | _above(nv, v, low, guard) == guard)
