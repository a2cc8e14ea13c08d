"""The benchmark's traced run (`benchmarks/run.py --trace 1`) wraps crcmlab
functions by name.  A rename or deletion in src/ must fail here, in tier-1,
and not only in the benchmark's own self-tests."""
import inspect
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import tracer  # noqa: E402

from crcmlab import cli_runner, crcm  # noqa: E402
from crcmlab import widom_rowlinson as wr  # noqa: E402
from crcmlab.geometry import Box  # noqa: E402
from crcmlab.model_core import DiracRadius, ModelParams  # noqa: E402


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t.name)
def test_traced_target_resolves(target):
    owner, attr, raw, fn = tracer._resolve(target)
    assert callable(fn) and fn.__name__ == attr


def test_names_the_benchmark_binds_outside_its_targets():
    # bindings the tracer self-test and the workloads read directly
    assert crcm.local_cc is tracer._resolve(_target("connectivity.local_cc"))[3]
    assert cli_runner.bd_step is crcm.bd_step
    params = inspect.signature(cli_runner.run_traced_chain).parameters
    assert list(params)[:3] == ["spec", "chain_index", "colored"]
    assert "checkpoint_cb" in params


def test_chain_calls_the_coupling_workload_makes():
    # benchmarks/workloads.py starts its chains with `crcm.new_chain` and
    # `wr.new_wr_chain` and runs each one sweep at a time with an explicit
    # state; for the color chain also an explicit step and sweep length.
    # Each call must leave the chain where the default call leaves it.
    window = Box([0.0, 0.0], [1.0, 1.0])
    wr_params = wr.WrParams(60.0, 2, DiracRadius(0.05), window)
    cr_params = ModelParams(30.0, 2.0, DiracRadius(0.05), window)
    wr_per_sweep = max(1, math.ceil(wr_params.total_intensity))
    cases = [
        (wr_params, wr.new_wr_chain, {"step": wr.wr_step, "per_sweep": wr_per_sweep}),
        (cr_params, crcm.new_chain, {}),
    ]
    for params, start, kw in cases:
        for seed in (3, 4):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            state = start(params, rng)
            with warnings.catch_warnings():  # one-sweep traces have no variance
                warnings.simplefilter("ignore", RuntimeWarning)
                a = crcm.run_chain(params, rng, sweeps=1, burn_in=0, thin=1, state=state, **kw)
                b = crcm.run_chain(params, twin, sweeps=1, burn_in=0, thin=1)
            assert a.state is state
            for x, y in zip(a.state.config.arrays(), b.state.config.arrays()):
                assert (x is None and y is None) or x.tolist() == y.tolist()
            assert (a.counts.tolist(), a.n_cc.tolist(), a.largest.tolist()) == (
                b.counts.tolist(), b.n_cc.tolist(), b.largest.tolist())
            assert (a.state.proposed, a.state.accepted) == (b.state.proposed, b.state.accepted)
            assert rng.bit_generator.state == twin.bit_generator.state


def _target(name):
    return next(t for t in tracer.TARGETS if t.name == name)
