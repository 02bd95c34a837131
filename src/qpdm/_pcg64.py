"""The part of numpy's random generator that qpdm draws from, bit for bit.

``Generator(seed)`` gives the draws of ``np.random.default_rng(seed)``: a
PCG64 stream (XSL-RR 128/64) seeded through numpy's ``SeedSequence`` from a
non-negative int or a list of them, with ``random()``, ``integers(low,
high)`` and ``choice(values)``. A command needs nothing more, so it never
imports ``numpy.random``, which costs about 6 MB of resident memory, and
its seeded outputs do not depend on the numpy release. With no seed, 128
bits of entropy come from ``os.urandom``.
"""
from __future__ import annotations

import operator
import os

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's pool of 32-bit words


def _words(entropy) -> list[int]:
    """The entropy as SeedSequence reads it: each int's 32-bit words, least
    significant first, one word for 0, concatenated over a list."""
    words = []
    for value in map(operator.index, entropy if isinstance(entropy, (list, tuple)) else [entropy]):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words += [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]
    return words


def _seed(entropy) -> tuple[int, int]:
    """(state, sequence): SeedSequence(entropy).generate_state(4, uint64),
    the two 128-bit halves PCG64 seeds from."""
    words, const = _words(entropy), _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    # eight words read as four little-endian 64-bit ones, high half first
    val = [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]
    return val[0] << 64 | val[1], val[2] << 64 | val[3]


class Generator:
    """numpy's Generator(PCG64(seed)), for the draws qpdm makes."""

    def __init__(self, seed=None):
        if seed is None:
            seed = int.from_bytes(os.urandom(16), "little")
        state, sequence = _seed(seed)
        self._inc = (sequence << 1 | 1) & _MASK128
        self._state = ((self._inc + state) * _MULTIPLIER + self._inc) & _MASK128
        self._upper = None  # the upper half of the last 64-bit output, not yet drawn

    def _next64(self) -> int:
        self._state = s = (self._state * _MULTIPLIER + self._inc) & _MASK128
        value, rot = (s >> 64 ^ s) & _MASK64, s >> 122
        return (value >> rot | value << (-rot & 63)) & _MASK64

    def _next32(self) -> int:
        if self._upper is not None:
            word, self._upper = self._upper, None
            return word
        value = self._next64()
        self._upper = value >> 32
        return value & _MASK32

    def random(self) -> float:
        """A uniform float in [0, 1), from the top 53 bits of one output."""
        return (self._next64() >> 11) * (1.0 / (1 << 53))

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in [low, high) by Lemire's rejection on 32-bit
        words; a range of one draws nothing."""
        span = high - low
        if not 0 < span < 1 << 32:
            raise ValueError(f"integers needs 0 < high - low < 2^32, got [{low}, {high})")
        if span == 1:
            return low
        threshold = (1 << 32) % span  # numpy's (2^32 - 1 - (span - 1)) % span
        m = self._next32() * span
        while m & _MASK32 < threshold:
            m = self._next32() * span
        return low + (m >> 32)

    def choice(self, values):
        """One entry of values, uniformly."""
        return values[self.integers(0, len(values))]
