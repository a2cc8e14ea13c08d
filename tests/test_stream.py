"""Block-read scalar draws: a BlockStream returns exactly the values of its
Generator, and leaves it in exactly the state the Generator's own calls
would; chains run through `sweep_loop` follow the trajectories they follow
when every step draws from the Generator directly."""
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crcmlab import cli_runner as cli
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
QUADS = [Box([0, 0], [0.5, 0.5]), Box([0.5, 0], [1, 0.5]),
         Box([0, 0.5], [0.5, 1]), Box([0.5, 0.5], [1, 1])]


def plain_state(rng: np.random.Generator) -> dict:
    """The bit generator's state as plain JSON (Philox keeps arrays)."""
    return json.loads(json.dumps(cli.rng_state_to_json(rng)))


# -- the stream against a twin Generator -------------------------------------

op = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.sampled_from([1, 2, 3, 187, 2**31 + 7, 2**32])),
    st.tuples(st.just("colour"), st.integers(1, 6)),  # integers(1, q + 1)
    st.tuples(st.just("handoff"), st.sampled_from(["random", "integers", "poisson", "scalar"])),
)


def twin_draw(stream, twin, step):
    """One operation on the stream and on its twin Generator."""
    kind, arg = step[0], step[1:]
    if kind == "random":
        return stream.random(), twin.random()
    if kind == "integers":
        return stream.integers(arg[0]), twin.integers(arg[0])
    if kind == "colour":
        return stream.integers(1, arg[0] + 1), twin.integers(1, arg[0] + 1)
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
    bit_generator=st.sampled_from([np.random.PCG64, np.random.Philox, np.random.SFC64]),
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


def test_stream_blocks_grow_and_the_half_word_carries_over():
    # 3,000 draws cross many refills; a scalar integer leaves the high half
    # of a word buffered across each hand-off
    stream = BlockStream(np.random.Generator(np.random.Philox(5)))
    twin = np.random.Generator(np.random.Philox(5))
    for k in range(3000):
        if k % 500 == 499:
            assert int(stream.generator().integers(9)) == int(twin.integers(9))
        elif k % 3:
            assert stream.random() == twin.random()
        else:
            assert stream.integers(187) == twin.integers(187)
    assert plain_state(stream.generator()) == plain_state(twin)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 3), (0, 2**32 + 1), (5, 2)])
def test_stream_rejects_ranges_it_cannot_draw(low, high):
    stream = BlockStream(np.random.default_rng(0))
    with pytest.raises(ValueError):
        stream.integers(low, high)


def test_stream_has_only_scalar_draws():
    stream = BlockStream(np.random.default_rng(0))
    with pytest.raises(AttributeError):
        stream.poisson(1.0)
    with pytest.raises(AttributeError):
        stream.bit_generator


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


@pytest.mark.parametrize(
    "bit_generator, wrapped",
    [(np.random.PCG64, True), (np.random.PCG64DXSM, True), (np.random.Philox, True),
     (np.random.SFC64, True), (np.random.MT19937, False)],
)
def test_sweep_loop_wraps_only_word_stream_generators(bit_generator, wrapped):
    params = ModelParams(20.0, 2.0, DiracRadius(0.05), UNIT)
    rng = np.random.Generator(bit_generator(3))
    seen = set()

    def step(state):
        seen.add(type(state.rng))
        return bd_step(state)

    rep = run_chain(params, rng, sweeps=2, burn_in=0, thin=1, step=step)
    assert seen == {BlockStream if wrapped else np.random.Generator}
    assert rep.state.rng is rng


def test_block_reads_restores_the_generator_after_a_failure():
    state = new_chain(ModelParams(20.0, 2.0, DiracRadius(0.05), UNIT), np.random.default_rng(1))
    twin = np.random.default_rng(1)
    new_chain(state.params, twin)
    with pytest.raises(RuntimeError):
        with block_reads(state):
            state.rng.random()
            state.rng.integers(7)
            raise RuntimeError("step failed")
    assert type(state.rng) is np.random.Generator
    twin.random()
    twin.integers(7)
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
# at z=60, q=2 on the unit square, as the chains drew them before both models
# shared one step; the color chain recolors in about a fifth of its moves
FIXED_SEED_TRAJECTORIES = {
    ("crcm", "dirac:0.05"): (
        [(57, 31, 4), (63, 27, 12), (56, 35, 5), (72, 28, 10)],
        {"birth": 607, "death": 593, "recolor": 0}, {"birth": 512, "death": 502, "recolor": 0}),
    ("crcm", "uniform:0.02,0.08"): (
        [(66, 39, 7), (55, 29, 5), (73, 34, 14), (69, 33, 14)],
        {"birth": 612, "death": 588, "recolor": 0}, {"birth": 496, "death": 484, "recolor": 0}),
    ("wr", "dirac:0.05"): (
        [(34, 23, 4), (31, 21, 7), (32, 27, 4), (36, 27, 3)],
        {"birth": 242, "death": 244, "recolor": 114}, {"birth": 168, "death": 121, "recolor": 114}),
    ("wr", "uniform:0.02,0.08"): (
        [(32, 20, 6), (38, 32, 4), (36, 31, 3), (49, 34, 3)],
        {"birth": 262, "death": 239, "recolor": 99}, {"birth": 163, "death": 122, "recolor": 99}),
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


def test_nested_fallback_trajectory_is_pinned():
    # q < 1 with one rejection attempt: each step draws from the Generator,
    # then the nested chain draws through the stream again
    params = ModelParams(80.0, 0.3, DiracRadius(0.06), UNIT)

    def step(state):
        return conditional_resample(state, QUADS[state.step_count % 4], max_attempts=1,
                                    nested_sweeps=2)

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
