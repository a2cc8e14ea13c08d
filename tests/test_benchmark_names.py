"""The benchmark's traced run (`benchmarks/run.py --trace 1`) wraps crcmlab
functions by name.  A rename or deletion in src/ must fail here, in tier-1,
and not only in the benchmark's own self-tests."""
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import tracer  # noqa: E402

from crcmlab import cli_runner, crcm  # noqa: E402


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


def _target(name):
    return next(t for t in tracer.TARGETS if t.name == name)
