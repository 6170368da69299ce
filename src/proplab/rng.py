"""Deterministic 64-bit generator for experiment inputs.

The update rule is the splitmix64 sequence, written out so the stream can be
reproduced in any language:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z      = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output = z XOR (z >> 31)

Floats in [0, 1) take the top 53 bits of the output divided by 2^53; normal
deviates use the Box-Muller transform on consecutive uniforms.  The stream
depends only on the seed, never on numpy's global state.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The splitmix64 stream started from a 64-bit seed."""

    def __init__(self, seed: int):
        self.state = int(seed) & MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK
        z = ((z ^ (z >> 27)) * MIX2) & MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def normals(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller on uniform pairs."""
        out = np.empty(count)
        i = 0
        while i < count:
            u1 = self.uniform()
            u2 = self.uniform()
            while u1 <= 0.0:
                u1 = self.uniform()
            r = np.sqrt(-2.0 * np.log(u1))
            out[i] = r * np.cos(2.0 * np.pi * u2)
            i += 1
            if i < count:
                out[i] = r * np.sin(2.0 * np.pi * u2)
                i += 1
        return out
