"""A chain's uniforms read in blocks of its Generator's own `random()`
values: every value, and the Generator's state once synced, is what the
Generator itself would have produced, whatever its bit generator.  A chain's
discrete picks are `int(u * n)` of these uniforms: u = k * 2^-53, so each of
the n values has probability within 2^-53 of 1/n, and (1 - 2^-53) * n
rounds below n for n up to 2^53."""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_BLOCK = 256


class BlockStream:
    """`random()` of a Generator, served from blocks of `Generator.random`.
    Anything else needs `generator()`, which syncs the Generator to the
    stream's position and returns it."""

    __slots__ = ("_gen", "_values", "_pos", "_start")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._values: list[float] = []
        self._pos = 0
        self._start = None  # bit generator state before the block; None when synced

    def _refill(self) -> list[float]:
        self._start = self._gen.bit_generator.state
        self._values = self._gen.random(_BLOCK).tolist()
        self._pos = 0
        return self._values

    def generator(self) -> np.random.Generator:
        if self._start is not None:
            self._gen.bit_generator.state = self._start
            self._gen.random(self._pos)
            self._values, self._pos, self._start = [], 0, None
        return self._gen

    def random(self) -> float:
        pos, values = self._pos, self._values
        if pos == len(values):
            pos, values = 0, self._refill()
        self._pos = pos + 1
        return values[pos]


def generator(rng) -> np.random.Generator:
    """The Generator behind a chain's `rng`, at its logical position."""
    return rng.generator() if isinstance(rng, BlockStream) else rng


@contextmanager
def block_reads(state):
    """Serve `state.rng`'s uniforms from a BlockStream for the body, then
    put back the synced Generator."""
    stream = state.rng = BlockStream(state.rng)
    try:
        yield
    finally:
        state.rng = stream.generator()
