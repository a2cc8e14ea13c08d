"""Every random stream of a run, built by `chain_rng` and keyed by the
position of what it draws, and a chain's uniforms read in blocks of its
Generator's own `random()` values: every value, and the Generator's state
once synced, is what the Generator itself would have produced, whatever its
bit generator.  A chain's discrete picks are `int(u * n)` of these uniforms:
u = k * 2^-53, so each of the n values has probability within 2^-53 of 1/n,
and (1 - 2^-53) * n rounds below n for n up to 2^53."""
from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

_BLOCK = 256


def chain_rng(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of `seed` at `key`, independent of every other key's.
    ValueError unless `key` is one or more integers in 0..2^32-1: SeedSequence
    splits a larger one into 32-bit words, so 2^32 would draw what (0, 1) draws."""
    if not key or not all(type(k) is int and 0 <= k < 2**32 for k in key):
        raise ValueError(f"a stream key is one or more integers in 0..2^32-1, got {key!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def rng_state_to_json(rng: np.random.Generator) -> dict:
    """The state of any bit generator as plain JSON: the numpy arrays and
    scalars in it become lists and Python numbers."""
    return json.loads(json.dumps(rng.bit_generator.state, default=lambda v: v.tolist()))


def rng_from_json(state: dict) -> np.random.Generator:
    """The Philox stream `rng_state_to_json` wrote.  Raises ValueError unless
    every field is in range: Philox.state itself takes a buffer position
    outside 0..4, and the next draw then reads outside its buffer."""
    words = {"counter": (state["state"]["counter"], 4), "key": (state["state"]["key"], 2),
             "buffer": (state["buffer"], 4)}
    for name, (value, size) in words.items():
        if not (type(value) is list and len(value) == size
                and all(type(w) is int and 0 <= w < 2**64 for w in value)):
            raise ValueError(f"Philox {name} must be {size} words of 64 bits, got {value!r}")
    for name, top in (("buffer_pos", 4), ("has_uint32", 1), ("uinteger", 2**32 - 1)):
        if type(state[name]) is not int or not 0 <= state[name] <= top:
            raise ValueError(f"Philox {name} must be an integer in 0..{top}, got {state[name]!r}")
    bg = np.random.Philox()
    bg.state = state  # Philox takes its counter, key and buffer as lists
    return np.random.Generator(bg)


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
