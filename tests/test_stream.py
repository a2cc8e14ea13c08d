"""Block-read uniforms: a BlockStream returns exactly the values of its
Generator, and leaves it in exactly the state the Generator's own calls
would; chains run through `sweep_loop` follow the trajectories they follow
when every step draws from the Generator directly.  A chain's discrete
picks are `int(u * n)` of those uniforms."""
import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crcmlab
from crcmlab import cli_runner as cli
from crcmlab import crcm
from crcmlab._stream import BlockStream, block_reads, generator
from crcmlab.crcm import (
    RejectionBudgetExceeded,
    bd_step,
    conditional_resample,
    new_chain,
    run_chain,
    sweep_loop,
    sweep_size,
    trace_row,
)
from crcmlab.geometry import Box
from crcmlab.model_core import DiracRadius, ModelParams, ParetoRadius, UniformRadius, parse_law
from crcmlab.widom_rowlinson import WrParams, new_wr_chain, wr_step

UNIT = Box([0.0, 0.0], [1.0, 1.0])
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937]
QUADS = [Box([0, 0], [0.5, 0.5]), Box([0.5, 0], [1, 0.5]),
         Box([0, 0.5], [0.5, 1]), Box([0.5, 0.5], [1, 1])]


def plain_state(rng: np.random.Generator) -> dict:
    """The bit generator's state as plain JSON (Philox keeps arrays)."""
    return json.loads(json.dumps(cli.rng_state_to_json(rng)))


# -- the stream against a twin Generator -------------------------------------

op = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("handoff"), st.sampled_from(["random", "integers", "poisson", "scalar"])),
)


def twin_draw(stream, twin, step):
    """One operation on the stream and on its twin Generator."""
    kind, arg = step[0], step[1:]
    if kind == "random":
        return stream.random(), twin.random()
    gen = stream.generator()
    assert plain_state(gen) == plain_state(twin)
    # the Generator's own draws between stream reads: arrays, poisson, and a
    # scalar integer that takes or leaves the buffered 32-bit half
    if arg[0] == "random":
        return gen.random(3).tolist(), twin.random(3).tolist()
    if arg[0] == "integers":
        return gen.integers(0, 7, size=3).tolist(), twin.integers(0, 7, size=3).tolist()
    if arg[0] == "poisson":
        return gen.poisson(2.5, size=4).tolist(), twin.poisson(2.5, size=4).tolist()
    return int(gen.integers(5)), int(twin.integers(5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(op, max_size=400),
)
def test_stream_draws_what_the_generator_draws(bit_generator, seed, ops):
    stream = BlockStream(np.random.Generator(bit_generator(seed)))
    twin = np.random.Generator(bit_generator(seed))
    for step in ops:
        got, want = twin_draw(stream, twin, step)
        assert got == want, step
    assert plain_state(stream.generator()) == plain_state(twin)


def test_stream_crosses_blocks_and_the_half_word_carries_over():
    # 3,000 draws cross many refills; a scalar integer on the synced
    # Generator leaves the high half of a word buffered, which the next
    # hand-off's integer takes after the stream's blocks in between
    stream = BlockStream(np.random.Generator(np.random.Philox(5)))
    twin = np.random.Generator(np.random.Philox(5))
    for k in range(3000):
        if k % 500 == 499:
            assert int(stream.generator().integers(9)) == int(twin.integers(9))
        else:
            assert stream.random() == twin.random()
    assert plain_state(stream.generator()) == plain_state(twin)


def test_stream_has_only_scalar_draws():
    stream = BlockStream(np.random.default_rng(0))
    with pytest.raises(AttributeError):
        stream.integers(3)
    with pytest.raises(AttributeError):
        stream.poisson(1.0)
    with pytest.raises(AttributeError):
        stream.bit_generator



def pick_sizes():
    """n = 1..200,000, 200,000 random n below 2^40, and 2^k - 1, 2^k, 2^k + 1
    for k <= 52."""
    powers = [2**k + j for k in range(1, 53) for j in (-1, 0, 1)]
    drawn = np.random.default_rng(40).integers(1, 2**40, 200_000)
    return np.concatenate([np.arange(1, 200_001), drawn, np.array(powers, dtype=np.int64)])


def test_uniform_pick_stays_in_range():
    # int(u * n) with u = k * 2^-53: the largest u picks n - 1, never n, and
    # the smallest picks 0 (numpy's product is the IEEE one Python's is)
    n = pick_sizes()
    assert np.array_equal(((1 - 2**-53) * n.astype(float)).astype(np.int64), n - 1)
    assert not (0.0 * n.astype(float)).astype(np.int64).any()
    for m in (1, 2, 3, 187, 2**31 + 7, 2**52 + 1):
        assert int((1 - 2**-53) * m) == m - 1 and int(0.0 * m) == 0

@pytest.mark.parametrize(
    "law",
    [UniformRadius(0.02, 0.08), UniformRadius(0.0, 3.0), ParetoRadius(2), ParetoRadius(3, 20.0),
     DiracRadius(0.1)],
    ids=repr,
)
def test_sample_scalar_is_the_size_zero_sample(law):
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    stream = BlockStream(np.random.default_rng(11))
    for _ in range(20_000):
        want = float(law.sample(b, size=()))
        assert law.sample_scalar(a) == want
        assert law.sample_scalar(stream) == want
    assert plain_state(a) == plain_state(b) == plain_state(stream.generator())


# -- which chains are wrapped --------------------------------------------------


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_sweep_loop_wraps_every_generator(bit_generator):
    params = ModelParams(20.0, 2.0, DiracRadius(0.05), UNIT)
    rng = np.random.Generator(bit_generator(3))
    seen = set()

    def step(state):
        seen.add(type(state.rng))
        return bd_step(state)

    rep = run_chain(params, rng, sweeps=2, burn_in=0, thin=1, step=step)
    assert seen == {BlockStream}
    assert rep.state.rng is rng


def test_block_reads_restores_the_generator_after_a_failure():
    state = new_chain(ModelParams(20.0, 2.0, DiracRadius(0.05), UNIT), np.random.default_rng(1))
    twin = np.random.default_rng(1)
    new_chain(state.params, twin)
    with pytest.raises(RuntimeError):
        with block_reads(state):
            state.rng.random()
            state.rng.random()
            raise RuntimeError("step failed")
    assert type(state.rng) is np.random.Generator
    twin.random()
    twin.random()
    assert plain_state(state.rng) == plain_state(twin)
    assert generator(state.rng) is state.rng


# -- trajectories are pinned -----------------------------------------------------


def raw_loop(state, step, per_sweep, burn_in, sweeps, thin):
    """sweep_loop's schedule with every draw taken from the Generator itself."""
    trace = []
    for sweep in range(burn_in + sweeps):
        for _ in range(per_sweep):
            step(state)
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            trace.append(trace_row(state, sweep))
    return trace


def heat_bath(state):
    """One heat-bath sweep as dlr-check runs it: a conditional resample of
    every quadrant."""
    for box in QUADS:
        conditional_resample(state, box)
    return state


def assert_same_chain(a, b):
    for x, y in zip(a.config.arrays(), b.config.arrays()):
        assert (x is None and y is None) or x.tolist() == y.tolist()
    assert (a.step_count, a.proposed, a.accepted) == (b.step_count, b.proposed, b.accepted)
    assert type(a.rng) is type(b.rng) is np.random.Generator
    assert plain_state(a.rng) == plain_state(b.rng)


@pytest.mark.parametrize("law", ["dirac:0.05", "uniform:0.02,0.08"])
@pytest.mark.parametrize("seed", [1, 2])
def test_bd_chain_trajectory_is_pinned(law, seed):
    params = ModelParams(60.0, 2.0, parse_law(law), UNIT)
    rep = run_chain(params, cli.chain_rng(seed, 0), sweeps=20, burn_in=5, thin=2)
    raw = new_chain(params, cli.chain_rng(seed, 0))
    trace = raw_loop(raw, bd_step, sweep_size(params), 5, 20, 2)
    assert rep.counts.tolist() == [r[1] for r in trace]
    assert rep.n_cc.tolist() == [r[2] for r in trace]
    assert rep.largest.tolist() == [r[3] for r in trace]
    assert_same_chain(rep.state, raw)


@pytest.mark.parametrize("colored", [False, True])
def test_mt19937_chain_trajectory_is_pinned(colored):
    # MT19937 builds a double from two 32-bit draws; its chains are read
    # through the stream as every other bit generator's are, here with a
    # 32-bit half buffered before the chain starts
    params = (WrParams if colored else ModelParams)(60.0, 2.0, DiracRadius(0.05), UNIT)
    a, b = (np.random.Generator(np.random.MT19937(8)) for _ in range(2))
    assert int(a.integers(5)) == int(b.integers(5))
    sa, sb = new_chain(params, a), new_chain(params, b)
    per_sweep = sweep_size(params)
    assert sweep_loop(sa, bd_step, per_sweep, 3, 10, 2, []) == raw_loop(sb, bd_step, per_sweep, 3, 10, 2)
    assert_same_chain(sa, sb)


@pytest.mark.parametrize("law", ["dirac:0.04", "tpareto:2,4.0"])
def test_wr_chain_trajectory_is_pinned(law):
    lw = parse_law(law)
    window = UNIT if law.startswith("dirac") else Box([0, 0], [10, 10])
    params = WrParams(100.0 / window.volume, 3, lw, window)
    a = new_wr_chain(params, cli.chain_rng(4, 0))
    b = new_wr_chain(params, cli.chain_rng(4, 0))
    per_sweep = 100
    assert sweep_loop(a, wr_step, per_sweep, 5, 20, 2, []) == raw_loop(b, wr_step, per_sweep, 5, 20, 2)
    assert_same_chain(a, b)


def test_heat_bath_trajectory_is_pinned():
    # as in dlr-check: one heat-bath sweep over the quadrants per chain sweep
    params = ModelParams(20.0, 2.0, DiracRadius(0.1), UNIT)
    rep = run_chain(params, cli.chain_rng(5, 0), sweeps=8, burn_in=2, thin=2,
                    step=heat_bath, per_sweep=1)
    raw = new_chain(params, cli.chain_rng(5, 0))
    trace = raw_loop(raw, heat_bath, 1, 2, 8, 2)
    assert rep.counts.tolist() == [r[1] for r in trace]
    assert_same_chain(rep.state, raw)


# (count, n_cc, largest) trace rows and the final proposed and accepted
# counts of `run_chain(params, chain_rng(7, 0), sweeps=8, burn_in=2, thin=2)`
# at z=60, q=2 on the unit square, with every pick int(u * n) of one uniform;
# the color chain recolors in about a fifth of its moves
FIXED_SEED_TRAJECTORIES = {
    ("crcm", "dirac:0.05"): (
        [(55, 34, 7), (76, 30, 9), (65, 33, 7), (50, 24, 6)],
        {"birth": 612, "death": 588, "recolor": 0}, {"birth": 512, "death": 494, "recolor": 0}),
    ("crcm", "uniform:0.02,0.08"): (
        [(59, 31, 7), (63, 30, 8), (72, 34, 8), (56, 36, 6)],
        {"birth": 592, "death": 608, "recolor": 0}, {"birth": 506, "death": 494, "recolor": 0}),
    ("wr", "dirac:0.05"): (
        [(32, 25, 3), (36, 26, 3), (39, 29, 4), (40, 27, 5)],
        {"birth": 250, "death": 236, "recolor": 114}, {"birth": 165, "death": 133, "recolor": 114}),
    ("wr", "uniform:0.02,0.08"): (
        [(29, 19, 7), (39, 26, 4), (36, 28, 3), (25, 19, 4)],
        {"birth": 234, "death": 252, "recolor": 114}, {"birth": 157, "death": 127, "recolor": 114}),
}


@pytest.mark.parametrize("model, law", list(FIXED_SEED_TRAJECTORIES))
def test_chain_trajectory_at_a_fixed_seed_is_pinned(model, law):
    # the tests above compare the stream with raw draws of the same code, so
    # a changed move-type threshold passes them; this one does not
    params = (WrParams if model == "wr" else ModelParams)(60.0, 2.0, parse_law(law), UNIT)
    rep = run_chain(params, cli.chain_rng(7, 0), sweeps=8, burn_in=2, thin=2)
    rows, proposed, accepted = FIXED_SEED_TRAJECTORIES[model, law]
    assert list(zip(rep.counts.tolist(), rep.n_cc.tolist(), rep.largest.tolist())) == rows
    assert (rep.state.proposed, rep.state.accepted) == (proposed, accepted)


def test_nested_fallback_trajectory_is_pinned(monkeypatch):
    # q < 1 with one rejection attempt: each step draws from the Generator,
    # then the nested chain draws through the stream again
    params = ModelParams(80.0, 0.3, DiracRadius(0.06), UNIT)
    monkeypatch.setattr(crcm, "_REJECTION_ATTEMPTS", 1)
    monkeypatch.setattr(crcm, "_FALLBACK_SWEEPS", 2)

    def step(state):
        return conditional_resample(state, QUADS[state.step_count % 4])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RejectionBudgetExceeded)
        a = new_chain(params, cli.chain_rng(6, 0))
        trace_a = sweep_loop(a, step, 1, 0, 6, 1, [])
    assert any(w.category is RejectionBudgetExceeded for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RejectionBudgetExceeded)
        b = new_chain(params, cli.chain_rng(6, 0))
        trace_b = raw_loop(b, step, 1, 0, 6, 1)
    assert trace_a == trace_b
    assert_same_chain(a, b)


@pytest.mark.parametrize("colored", [False, True])
def test_mid_run_checkpoint_resumes_the_same_trajectory(colored):
    settings_ = {"z": "60", "q": "2", "law": "dirac:0.05", "sweeps": "30", "burn_in": "6",
                 "thinning": "2", "checkpoint_every": "7"}
    spec = cli.load_spec("sample-wr" if colored else "sample-crcm", None, settings_)
    docs = []
    straight, trace = cli.run_traced_chain(spec, 0, colored, checkpoint_cb=docs.append)
    assert [d["sweep"] for d in docs] == [7, 14, 21, 28, 35]
    for doc in docs:
        doc = json.loads(json.dumps(doc))
        resumed, resumed_trace = cli.run_traced_chain(spec, 0, colored, resume_doc=doc)
        assert resumed_trace == trace
        assert_same_chain(resumed, straight)


# -- one module builds every stream ---------------------------------------------------

STREAM_BUILDERS = {"SeedSequence", "Philox", "PCG64", "MT19937", "default_rng"}


def test_only_the_stream_module_names_a_bit_generator():
    # every stream of a run comes from `chain_rng`, so a second keying rule
    # cannot creep in beside it; docstrings may name them, code may not
    named = set()
    for path in sorted(Path(crcmlab.__file__).parent.glob("*.py")):
        if path.name == "_stream.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):  # from numpy.random import ...
                name = node.name
            else:
                continue
            if name in STREAM_BUILDERS:
                named.add(f"{path.name}:{node.lineno} {name}")
    assert not named
