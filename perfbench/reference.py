"""The host-speed reference: a fixed kernel that times how fast the host runs now.

The benchmark runs on shared machines whose speed for pure-Python work
drifts by tens of percent within a minute.  Before the first item and after
every item ``run.py`` times this kernel (``probe_ms``) and scales the
item's wall time by ``REFERENCE_MS`` over the mean of the two probes next
to it, which turns it into the time
the item would take on a host where the kernel takes exactly
``REFERENCE_MS``.  A slow spell of the host stretches the item and the
kernel alike, so the scaled time keeps only what the program did.

The kernel is a schoolbook product of two polynomials over GF(2^8) and the
remainder of that product by a monic polynomial, written with log/exp
tables and per-coefficient method calls, as the library's hot loops are.
It is written here and imports nothing from the library, so no change to
the library can make it faster or slower.
"""

from __future__ import annotations

import random
from time import perf_counter

REFERENCE_MS = 1.0      # the kernel's time on the nominal host; scaled times are in its units
PROBE_CALLS = 3         # kernel calls per probe; the probe is their mean time


class _GF256:
    def __init__(self):
        exp, x = [0] * 510, 1
        for i in range(255):
            exp[i] = exp[i + 255] = x
            x <<= 1
            if x & 0x100:
                x ^= 0x11D
        self.exp = exp
        self.log = {exp[i]: i for i in range(255)}

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


_F = _GF256()
_rng = random.Random(0)
_A = [_rng.randrange(1, 256) for _ in range(40)]
_B = [_rng.randrange(1, 256) for _ in range(40)]
_M = [_rng.randrange(256) for _ in range(24)] + [1]


def kernel() -> list[int]:
    """(A * B) mod M over GF(2^8), coefficients lowest degree first."""
    f = _F
    prod = [0] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            prod[i + j] = f.add(prod[i + j], f.mul(a, b))
    top = len(_M) - 1
    for i in range(len(prod) - 1, top - 1, -1):
        c = prod[i]
        if c:
            for j, m in enumerate(_M):
                prod[i - top + j] = f.add(prod[i - top + j], f.mul(c, m))
    return prod[:top]


_EXPECTED = kernel()


def probe_ms() -> float:
    """The mean time of PROBE_CALLS kernel calls, in ms.

    The mean, not the fastest call: a host that is slow for part of the
    probe was slow for part of the item next to it too.
    """
    t0 = perf_counter()
    for _ in range(PROBE_CALLS):
        out = kernel()
    elapsed = perf_counter() - t0
    if out != _EXPECTED:
        raise RuntimeError("the reference kernel gave a different result")
    return elapsed * 1000 / PROBE_CALLS
