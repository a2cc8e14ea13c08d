"""Scalar draws of a chain's Generator read in blocks of its raw 64-bit
words: every value, and the Generator's state once synced, is what the
Generator itself would have produced."""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

# bit generators whose double is (word >> 11) * 2^-53 and whose 32-bit draw
# is a word's low half, the high half buffered for the next one
# (has_uint32 / uinteger); MT19937 builds doubles from two 32-bit draws
_WRAPPED = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
_MASK32 = 0xFFFFFFFF
_FIRST_BLOCK, _MAX_BLOCK = 16, 1024


class BlockStream:
    """`random()` and `integers(n)` / `integers(lo, hi)` of a Generator,
    served from raw words; integers by numpy's Lemire rejection on 32-bit
    draws (ranges up to 2^32).  Anything else needs `generator()`, which
    syncs the Generator to the stream's position and returns it."""

    __slots__ = ("_gen", "_words", "_pos", "_start", "_block", "_has32", "_upper")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._words: list[int] = []
        self._pos = 0
        self._start = None  # bit generator state before the block; None when synced
        self._block = _FIRST_BLOCK
        self._has32, self._upper = False, 0

    def _refill(self) -> list[int]:
        bg = self._gen.bit_generator
        state = bg.state
        if self._start is None:  # first block since a sync: take over the buffered half
            self._has32, self._upper = bool(state["has_uint32"]), state["uinteger"]
        self._start = state
        self._words = bg.random_raw(self._block).tolist()
        self._pos = 0
        self._block = min(2 * self._block, _MAX_BLOCK)
        return self._words

    def generator(self) -> np.random.Generator:
        if self._start is not None:
            start, bg = self._start, self._gen.bit_generator
            start["has_uint32"], start["uinteger"] = int(self._has32), self._upper
            bg.state = start
            bg.random_raw(self._pos)  # raw draws leave the buffered half alone
            self._words, self._pos, self._start, self._block = [], 0, None, _FIRST_BLOCK
            self._has32 = False  # the Generator holds the buffered half until the next block
        return self._gen

    def random(self) -> float:
        pos, words = self._pos, self._words
        if pos == len(words):
            pos, words = 0, self._refill()
        self._pos = pos + 1
        return (words[pos] >> 11) * 1.1102230246251565e-16  # 2^-53

    def _uint32(self) -> int:
        if not self._has32:
            pos, words = self._pos, self._words
            if pos == len(words):
                pos, words = 0, self._refill()
            if not self._has32:  # a first block since a sync may bring a buffered half
                self._pos = pos + 1
                w = words[pos]
                self._has32, self._upper = True, w >> 32
                return w & _MASK32
        self._has32 = False
        return self._upper

    def integers(self, low: int, high=None) -> int:
        if high is None:
            low, high = 0, low
        n = high - low
        if n == 1:
            return low
        if not 1 < n <= 1 << 32:
            raise ValueError(f"integers({low}, {high}): range must hold 1 to 2^32 values")
        m = self._uint32() * n
        if (m & _MASK32) < n:
            threshold = ((1 << 32) - n) % n
            while (m & _MASK32) < threshold:
                m = self._uint32() * n
        return low + (m >> 32)


def generator(rng) -> np.random.Generator:
    """The Generator behind a chain's `rng`, at its logical position."""
    return rng.generator() if isinstance(rng, BlockStream) else rng


@contextmanager
def block_reads(state):
    """Serve `state.rng`'s scalar draws from a BlockStream for the body, then
    put back the synced Generator.  Other bit generators, and a state whose
    rng is already a stream, are left as they are."""
    rng = state.rng
    if type(rng) is not np.random.Generator or type(rng.bit_generator) not in _WRAPPED:
        yield
        return
    stream = state.rng = BlockStream(rng)
    try:
        yield
    finally:
        state.rng = stream.generator()
