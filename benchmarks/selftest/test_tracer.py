import inspect

import numpy as np
import pytest

from crcmlab import analysis, cli_runner, crcm, model_core
from crcmlab.geometry import Box
from crcmlab.model_core import DiracRadius, ModelParams

import tracer as tr


def test_self_time_of_nested_synthetic_spans():
    # root [0,10] has children [1,4], [3,6] (overlapping it) and [9,12]
    # (sticking out); [2,3] is a child of [1,4].
    start = np.array([0.0, 1.0, 3.0, 2.0, 9.0])
    end = np.array([10.0, 4.0, 6.0, 3.0, 12.0])
    parent = np.array([-1, 0, 0, 1, 0])
    # root: 10 minus the union [1,6] u [9,10]
    assert tr.self_times(start, end, parent).tolist() == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_of_recorded_spans_add_up_to_the_root():
    t = tr.Tracer("selftest")
    with t.span("a"):
        with t.span("b"):
            with t.span("c"):
                sum(range(10_000))
        with t.span("d"):
            sum(range(10_000))
    s = t.self_times()
    assert (s >= 0).all()
    assert s.sum() == pytest.approx(t.end[0] - t.start[0])
    assert list(t.parent) == [-1, 0, 1, 0]


def _original(name):
    target = next(t for t in tr.TARGETS if t.name == name)
    return tr._resolve(target)[3]


def test_tracer_reaches_every_binding_and_restores_it():
    before = tr.bindings()
    bd_step, local_cc = _original("crcm.bd_step"), _original("connectivity.local_cc")
    run_chain = _original("crcm.run_chain")
    params = ModelParams(20.0, 2.0, DiracRadius(0.05), Box([0, 0], [1, 1]))
    with tr.Tracer("selftest") as t:
        # re-imported module globals
        for mod in (crcm, analysis):
            assert mod.local_cc.__wrapped__ is local_cc
        assert cli_runner.bd_step.__wrapped__ is bd_step
        # a default argument captured at definition time
        step_default = inspect.signature(run_chain).parameters["step"].default
        assert step_default.__wrapped__ is bd_step
        # methods and a classmethod on their classes
        assert isinstance(model_core.Configuration.from_balls(params.window, []),
                          model_core.Configuration)
        crcm.run_chain(params, np.random.default_rng(0), sweeps=3, burn_in=0)
        m = t.metrics()
    assert m["crcm.bd_step.calls"] > 0
    assert m["crcm.run_chain.calls"] == 1
    assert m["model_core.from_balls.calls"] == 1
    assert m["connectivity.insertion_increment.calls"] > 0
    after = tr.bindings()
    assert [k for k, _ in before] == [k for k, _ in after]
    changed = [k for (k, a), (_, b) in zip(before, after) if a is not b]
    assert changed == []
    assert not hasattr(crcm.bd_step, "__wrapped__")


def test_every_per_layer_name_is_reported_once():
    names = tr.per_layer_names()
    assert len(names) == len(set(names))
    assert list(tr.Tracer("selftest").metrics()) == names
