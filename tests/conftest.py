import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crcmlab._stream import block_reads
from crcmlab.crcm import bd_step, new_chain


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args):
    """`python *args` in a fresh interpreter that imports crcmlab from this
    checkout's src/ whether or not PYTHONPATH names it (pytest's own
    `pythonpath` setting reaches only the pytest process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def make_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def fingerprint(params, seed, steps, step=bd_step):
    """sha256 of a chain after `steps` calls of `step` from
    `new_chain(params, make_rng(seed))`, run inside `block_reads` as
    `sweep_loop` runs them.  It covers the final `arrays()`, the proposed
    and accepted counts, `n_cc` and the Generator's state, so a digest
    recorded before a change to the move path shows that every draw, hit
    and trajectory stayed the same."""
    state = new_chain(params, make_rng(seed))
    with block_reads(state):
        for _ in range(steps):
            step(state)
    centers, radii, colors = state.config.arrays()
    h = hashlib.sha256()
    for a in (centers, radii, colors):
        h.update(b"none" if a is None else a.tobytes())
    book = [state.proposed, state.accepted, state.n_cc, state.rng.bit_generator.state]
    h.update(json.dumps(book, sort_keys=True).encode())
    return h.hexdigest()


@pytest.fixture
def chain_fingerprint():
    return fingerprint
