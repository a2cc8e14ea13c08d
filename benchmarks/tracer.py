"""Traced-run support: time crcmlab's public functions from outside.

`Tracer.install` wraps each target in `TARGETS` and rebinds every reference
the package holds to the original: the attribute on its class or module, the
module globals of every crcmlab module that re-imports it, and default
argument values that captured it (`run_chain(step=bd_step)`).
`Tracer.uninstall` puts every original back.  Nothing in `src/` is edited.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from measure import iact


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix, defining module, and its
    qualified name there ("local_cc" or "ClusterLabeling.rebuild")."""

    name: str
    module: str
    qualname: str


def _t(name: str, qualname: str) -> Target:
    layer = name.split(".")[0]
    return Target(name, f"crcmlab.{layer}", qualname)


TARGETS = (
    _t("geometry.candidates", "SpatialIndex.candidates"),
    _t("geometry.box_new", "Box.__post_init__"),
    _t("model_core.sample_poisson_boolean", "sample_poisson_boolean"),
    _t("model_core.add", "Configuration.add"),
    _t("model_core.remove", "Configuration.remove"),
    _t("model_core.intersectors", "Configuration.intersectors"),
    _t("model_core.from_balls", "Configuration.from_balls"),
    _t("model_core.copy", "Configuration.copy"),
    _t("connectivity.count_components", "count_components"),
    _t("connectivity.local_cc", "local_cc"),
    _t("connectivity.compatibility_offset", "compatibility_offset"),
    _t("connectivity.check_bounds", "check_bounds"),
    _t("connectivity.rebuild", "ClusterLabeling.rebuild"),
    _t("connectivity.insertion_increment", "ClusterLabeling.insertion_increment"),
    _t("connectivity.removal_split", "ClusterLabeling.removal_split"),
    _t("connectivity.apply_insertion", "ClusterLabeling.apply_insertion"),
    _t("connectivity.apply_removal", "ClusterLabeling.apply_removal"),
    _t("connectivity.component_sizes", "ClusterLabeling.component_sizes"),
    _t("crcm.bd_step", "bd_step"),
    _t("crcm.run_chain", "run_chain"),
    _t("crcm.audit", "ChainState.audit"),
    _t("crcm._reference_draws", "_reference_draws"),
    _t("crcm.importance_oracle", "importance_oracle"),
    _t("widom_rowlinson.wr_step", "wr_step"),
    _t("widom_rowlinson.run_wr_chain", "run_wr_chain"),
    _t("widom_rowlinson.fk_consistency_test", "fk_consistency_test"),
    _t("widom_rowlinson.gnz_residual_wr", "gnz_residual_wr"),
    _t("analysis.event_Aij", "event_Aij"),
    _t("analysis.event_Wij", "event_Wij"),
    _t("analysis.localization_check", "localization_check"),
    _t("analysis.shield_covering_trials", "shield_covering_trials"),
    _t("analysis.estimate_NP", "estimate_NP"),
    _t("analysis.phi_y", "phi_y"),
    _t("analysis.wr_entropy_upper", "wr_entropy_upper"),
    _t("cli_runner.run_traced_chain", "run_traced_chain"),
    _t("cli_runner.write_csv", "write_csv"),
    _t("cli_runner.write_manifest", "write_manifest"),
)

# Spans the benchmark opens itself, around each CLI subcommand it runs.
SUBCOMMANDS = (
    "sample-poisson", "sample-crcm", "sample-wr", "gnz-check", "fk-check",
    "dlr-check", "bounds-audit", "localization", "shield", "entropy-bounds",
    "np-decay", "coverage-probe",
)

RATIOS = (
    "geometry.candidates_per_hit",
    "geometry.overflow_len",
    "connectivity.removal_split.visited_per_call",
    "crcm.bd_step.us_per_call",
    "crcm.accept_birth",
    "crcm.accept_death",
    "crcm.iact_max",
    "crcm.oracle_giant_share",
    "crcm.oracle_draw_size_mean",
    "widom_rowlinson.wr_step.us_per_call",
    "widom_rowlinson.accept_birth",
    "widom_rowlinson.accept_death",
    "widom_rowlinson.iact_max",
)

def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for t in TARGETS:
        names += [f"{t.name}.calls", f"{t.name}.self_s"]
    names += [f"cli_runner.{sub}.s" for sub in SUBCOMMANDS]
    names += list(RATIOS)
    names += ["ess_per_s", "unit_tail_ms", "trace.overhead_frac"]
    return names


def _resolve(target: Target):
    """(owner, attribute, raw attribute value, plain function)."""
    owner = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = vars(owner)[parts[-1]]
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return owner, parts[-1], raw, fn


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "crcmlab" or name.startswith("crcmlab."))]


def _package_functions():
    """Every plain function defined at module or class level in crcmlab."""
    seen = set()
    for mod in _package_modules():
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__.startswith("crcmlab"):
                candidates = list(vars(value).values())
            for v in candidates:
                if isinstance(v, (classmethod, staticmethod)):
                    v = v.__func__
                if callable(v) and hasattr(v, "__defaults__") and id(v) not in seen:
                    seen.add(id(v))
                    yield v


def bindings() -> list[tuple[str, object]]:
    """Every (where, value) pair the tracer may rebind: module globals,
    class attributes and default-argument tuples of the crcmlab package.
    Used by the self-test to check that uninstall restores them all."""
    out = []
    for mod in _package_modules():
        for k, v in vars(mod).items():
            out.append((f"{mod.__name__}.{k}", v))
            if isinstance(v, type) and v.__module__.startswith("crcmlab"):
                for ck, cv in vars(v).items():
                    out.append((f"{mod.__name__}.{k}.{ck}", cv))
    for fn in _package_functions():
        out.append((f"{fn.__module__}.{fn.__qualname__}.__defaults__", fn.__defaults__))
        out.append((f"{fn.__module__}.{fn.__qualname__}.__kwdefaults__", fn.__kwdefaults__))
    return out


class Tracer:
    """Spans and counters for one traced pass of a workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []
        self.counts: dict[str, float] = {}
        self.states: dict[int, object] = {}
        self.traces: dict[str, list[np.ndarray]] = {"crcm": [], "widom_rowlinson": []}

    # -- spans -------------------------------------------------------------

    def _code_of(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, code: int) -> int:
        sid = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span opened by the benchmark itself."""
        sid = self._open(self._code_of(name))
        try:
            yield
        finally:
            self._close(sid)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]):
        code = self._code_of(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- observers: counts taken where the work happens ----------------------

    def _observers(self) -> dict[str, Callable]:
        def candidates(ids):
            self.count("candidates", len(ids))

        def intersectors(hits):
            self.count("hits", len(hits))

        def removal_split(groups):
            self.count("removal_split.visited", sum(len(g) for g in groups))

        def chain_report(rep):
            self._keep_state(rep.state)
            if rep.counts.size >= 16:
                layer = "widom_rowlinson" if rep.state.config.colored else "crcm"
                self.traces[layer].append(np.stack([rep.counts, rep.n_cc, rep.largest]))

        def traced_chain(result):
            self._keep_state(result[0])

        return {
            "geometry.candidates": candidates,
            "model_core.intersectors": intersectors,
            "connectivity.removal_split": removal_split,
            "crcm.run_chain": chain_report,
            "cli_runner.run_traced_chain": traced_chain,
        }

    def _keep_state(self, state) -> None:
        # strong reference: ids stay unique while the tracer lives
        self.states[id(state)] = state

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        observers = self._observers()
        functions = list(_package_functions())  # before any rebinding hides one
        swap: dict[int, tuple[object, object]] = {}  # id(original fn) -> (fn, wrapper)
        for t in TARGETS:
            owner, attr, raw, fn = _resolve(t)
            wrapper = self._wrap(t.name, fn, observers.get(t.name))
            if isinstance(owner, type):
                new = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                setattr(owner, attr, new)
                self._restore.append(functools.partial(setattr, owner, attr, raw))
            swap[id(fn)] = (fn, wrapper)
        for mod in _package_modules():
            for k, v in list(vars(mod).items()):
                hit = swap.get(id(v))
                if hit is not None and hit[0] is v:
                    setattr(mod, k, hit[1])
                    self._restore.append(functools.partial(setattr, mod, k, v))
        for fn in functions:
            if fn.__defaults__ and any(id(d) in swap for d in fn.__defaults__):
                old = fn.__defaults__
                fn.__defaults__ = tuple(
                    swap[id(d)][1] if id(d) in swap and swap[id(d)][0] is d else d
                    for d in old
                )
                self._restore.append(functools.partial(setattr, fn, "__defaults__", old))
            if fn.__kwdefaults__ and any(id(d) in swap for d in fn.__kwdefaults__.values()):
                old_kw = fn.__kwdefaults__
                fn.__kwdefaults__ = {
                    k: (swap[id(d)][1] if id(d) in swap and swap[id(d)][0] is d else d)
                    for k, d in old_kw.items()
                }
                self._restore.append(functools.partial(setattr, fn, "__kwdefaults__", old_kw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy views: name code, start, end, parent."""
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int32)}

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the part of it its children cover."""
        a = self.arrays()
        return self_times(a["start"], a["end"], a["parent"])

    def metrics(self) -> dict[str, float]:
        """Calls, self time and ratios for every per-layer name this module
        owns; names with no spans read 0."""
        out = {name: 0.0 for name in per_layer_names()}
        a = self.arrays()
        codes = a["name"]
        selfs = self_times(a["start"], a["end"], a["parent"])
        dur = a["end"] - a["start"]
        calls = np.bincount(codes, minlength=len(self.names))
        self_s = np.bincount(codes, weights=selfs, minlength=len(self.names))
        incl_s = np.bincount(codes, weights=dur, minlength=len(self.names))
        by_name = {n: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
                   for i, n in enumerate(self.names)}
        for t in TARGETS:
            c, s, _ = by_name.get(t.name, (0, 0.0, 0.0))
            out[f"{t.name}.calls"] = c
            out[f"{t.name}.self_s"] = s
        for sub in SUBCOMMANDS:
            out[f"cli_runner.{sub}.s"] = by_name.get(f"cli_runner.{sub}", (0, 0.0, 0.0))[2]

        def ratio(a, b):
            return a / b if b else 0.0

        cnt = self.counts
        out["geometry.candidates_per_hit"] = ratio(cnt.get("candidates", 0.0), cnt.get("hits", 0.0))
        states = list(self.states.values())
        out["geometry.overflow_len"] = max(
            (len(s.config.index.oversized) for s in states), default=0)
        out["connectivity.removal_split.visited_per_call"] = ratio(
            cnt.get("removal_split.visited", 0.0), out["connectivity.removal_split.calls"])
        for layer, step in (("crcm", "bd_step"), ("widom_rowlinson", "wr_step")):
            c, _, incl = by_name.get(f"{layer}.{step}", (0, 0.0, 0.0))
            out[f"{layer}.{step}.us_per_call"] = ratio(1e6 * incl, c)
            mine = [s for s in states if s.config.colored == (layer == "widom_rowlinson")]
            for kind in ("birth", "death"):
                out[f"{layer}.accept_{kind}"] = ratio(
                    sum(s.accepted[kind] for s in mine), sum(s.proposed[kind] for s in mine))
            out[f"{layer}.iact_max"] = max(
                (iact(row) for tr in self.traces[layer] for row in tr), default=0.0)
        out["crcm.oracle_giant_share"] = ratio(cnt.get("oracle.giant_draws", 0.0),
                                               cnt.get("oracle.draws", 0.0))
        out["crcm.oracle_draw_size_mean"] = ratio(cnt.get("oracle.balls", 0.0),
                                                  cnt.get("oracle.draws", 0.0))
        return out

    def write(self, path: Path) -> None:
        """Dump the spans: name, start, end, parent (-1 for a root) and the
        workload, as arrays in one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, workload=np.array(self.workload),
                            names=np.array(self.names, dtype=str), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus the union of its children's
    intervals clipped to it.  Children may overlap or stick out."""
    out = end - start
    has_parent = np.flatnonzero(parent >= 0)
    if has_parent.size == 0:
        return out
    order = has_parent[np.lexsort((start[has_parent], parent[has_parent]))]
    cur_parent = -1
    lo = hi = 0.0
    covered = 0.0

    def flush():
        nonlocal covered
        if cur_parent >= 0:
            out[cur_parent] -= covered + (hi - lo)

    for i in order:
        p = int(parent[i])
        a = max(float(start[i]), float(start[p]))
        b = min(float(end[i]), float(end[p]))
        if p != cur_parent:
            flush()
            cur_parent, lo, hi, covered = p, a, max(a, b), 0.0
            continue
        if b <= a:
            continue
        if a > hi:
            covered += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    flush()
    return out
