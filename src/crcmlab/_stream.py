"""A chain's uniforms read in blocks of its Generator's raw 64-bit words:
every value, and the Generator's state once synced, is what the Generator
itself would have produced.  A chain's discrete picks are `int(u * n)` of
these uniforms: u = k * 2^-53, so each of the n values has probability
within 2^-53 of 1/n, and (1 - 2^-53) * n rounds below n for n up to 2^53."""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

# bit generators whose double is one raw word, (word >> 11) * 2^-53;
# MT19937 builds doubles from two 32-bit draws
_WRAPPED = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
_FIRST_BLOCK, _MAX_BLOCK = 16, 1024


class BlockStream:
    """`random()` of a Generator, served from raw words.  Anything else
    needs `generator()`, which syncs the Generator to the stream's position
    and returns it.  Raw words leave the Generator's buffered 32-bit half
    alone, so a half it left buffered is there again after the sync."""

    __slots__ = ("_gen", "_words", "_pos", "_start", "_block")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._words: list[int] = []
        self._pos = 0
        self._start = None  # bit generator state before the block; None when synced
        self._block = _FIRST_BLOCK

    def _refill(self) -> list[int]:
        bg = self._gen.bit_generator
        self._start = bg.state
        self._words = bg.random_raw(self._block).tolist()
        self._pos = 0
        self._block = min(2 * self._block, _MAX_BLOCK)
        return self._words

    def generator(self) -> np.random.Generator:
        if self._start is not None:
            bg = self._gen.bit_generator
            bg.state = self._start
            bg.random_raw(self._pos)
            self._words, self._pos, self._start, self._block = [], 0, None, _FIRST_BLOCK
        return self._gen

    def random(self) -> float:
        pos, words = self._pos, self._words
        if pos == len(words):
            pos, words = 0, self._refill()
        self._pos = pos + 1
        return (words[pos] >> 11) * 1.1102230246251565e-16  # 2^-53


def generator(rng) -> np.random.Generator:
    """The Generator behind a chain's `rng`, at its logical position."""
    return rng.generator() if isinstance(rng, BlockStream) else rng


@contextmanager
def block_reads(state):
    """Serve `state.rng`'s uniforms from a BlockStream for the body, then
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
