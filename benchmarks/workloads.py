"""The four benchmark workloads.

Each workload builds its inputs from the run's seed, exposes `step(i)`, one
slice of the timed body, and checks the program's outputs in `check()`,
outside the timed body.  A unit that raises, returns a non-finite value or
fails its check counts as failed.

Why each workload exists, and which layers it stresses and bypasses, is
written up in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import stats

from crcmlab import cli_runner as cli
from crcmlab import crcm
from crcmlab import widom_rowlinson as wr
from crcmlab.geometry import Box
from crcmlab.model_core import DiracRadius, ModelParams

from measure import ess

UNIT_SQUARE = ((0.0, 0.0), (1.0, 1.0))


@dataclass
class Step:
    """What one call of `step` did: units completed, per-unit wall times in
    seconds, and how many of its units failed."""

    units: int
    unit_times: list[float]
    failed: int = 0


def unit_seed(seed: int, i: int) -> int:
    """Distinct non-negative program seed for unit i of a run."""
    return seed * 1_000_003 + i


class Workload:
    name = ""
    tracer = None    # set for a traced pass, to open spans of its own

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.details: dict = {}  # what check() saw, for the result file
        self.out = out / self.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def warm_up(self) -> None:
        """Work done once before timing: lazy imports and first-call costs."""

    def step(self, i: int) -> Step:
        raise NotImplementedError

    def check(self) -> int:
        """Verify the outputs; return how many units not yet counted as
        failed fail their check."""
        return 0

    def effective_samples(self) -> float:
        return 0.0

    def layer_counts(self) -> dict[str, float]:
        """Counters the workload itself observed, merged into the trace."""
        return {}

    def chain_traces(self) -> dict[str, list[np.ndarray]]:
        """(3, n) count/n_cc/largest traces the workload assembled itself."""
        return {}


# ---------------------------------------------------------------------------
# audit: the criterion-5 bounds audit, one configuration per unit
# ---------------------------------------------------------------------------


class Audit(Workload):
    name = "audit"
    spec = {"z": "0.1", "law": "uniform:0.2,1", "window": "-4,-4:4,4", "r0": "1",
            "samples": "1"}
    check_kinds = 7

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.base = cli.load_spec("bounds-audit", None, {**self.spec, "out": str(self.out)})
        self.results: list[tuple[int, str]] = []  # exit code and printed summary

    def _one(self, seed: int) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.cmd_bounds_audit(dataclasses.replace(self.base, seed=seed), self.out)
        return code, buf.getvalue()

    def warm_up(self):
        self._one(unit_seed(self.seed, 10**6 - 1))

    def step(self, i):
        t = time.perf_counter()
        try:
            code, line = self._one(unit_seed(self.seed, i))
        except Exception:
            code, line = -1, ""
        dt = time.perf_counter() - t
        self.results.append((code, line))
        return Step(1, [dt], int(code != cli.EXIT_OK))

    def check(self):
        # Exit code 0 means zero violations summed over all check kinds; the
        # last CSV shows that every kind was audited.
        ok = [line for code, line in self.results if code == cli.EXIT_OK]
        rows = (self.out / "bounds.csv").read_text().splitlines()[2:]
        kinds = {r.split(",")[0]: int(r.split(",")[1]) for r in rows}
        if len(kinds) != self.check_kinds or any(kinds.values()):
            return len(ok)
        return sum(" 0 violations over 1 configurations" not in line for line in ok)


# ---------------------------------------------------------------------------
# coupling: component-coloring check at desk scale, one coupled sweep per unit
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Pair:
    wr_state: object
    cr_state: object
    wr_rng: np.random.Generator
    cr_rng: np.random.Generator
    sweeps: int = 0
    rows: list = field(default_factory=list)  # (wr count, n_cc, largest, cr ...)
    failed: bool = False


class Coupling(Workload):
    """Hard-core-color chain at z against the cluster-weighted chain at z/q,
    compared per seed pair by fk_consistency_test's KS construction."""

    name = "coupling"
    z, q, radius = 400.0, 2, 0.03
    burn_in, recorded = 20, 150
    ks_thin = 3          # fk_consistency_test's default thinning
    min_ks_samples = 20  # a pair cut short by the clock below this is not tested
    # Family-wise KS level per run.  fk_consistency_test uses 0.01 for one
    # test; a benchmark campaign repeats the run about a hundred times, so the
    # level is divided by 100 to keep spurious failures near 1% per campaign.
    alpha = 1e-4

    def __init__(self, seed, out):
        super().__init__(seed, out)
        law = DiracRadius(self.radius)
        window = Box(*UNIT_SQUARE)
        self.wr_params = wr.WrParams(self.z, self.q, law, window)
        self.cr_params = ModelParams(self.z / self.q, float(self.q), law, window)
        # run_wr_chain's sweep length; run_chain picks the crcm one itself
        self.wr_per_sweep = max(1, math.ceil(self.wr_params.total_intensity))
        self.pairs: list[_Pair] = []
        self.current: Optional[_Pair] = None

    def _new_pair(self) -> _Pair:
        k = len(self.pairs)

        def rng(j):
            return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(j,)))

        wr_rng, cr_rng = rng(2 * k), rng(2 * k + 1)
        pair = _Pair(wr.new_wr_chain(self.wr_params, wr_rng),
                     crcm.new_chain(self.cr_params, cr_rng), wr_rng, cr_rng)
        self.pairs.append(pair)
        return pair

    def _sweep(self, pair: _Pair):
        # one-sweep reports warn that a single-sample trace has no variance
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a, b = self._run_sweep(pair)
        return (int(a.counts[0]), int(a.n_cc[0]), int(a.largest[0]),
                int(b.counts[0]), int(b.n_cc[0]), int(b.largest[0]))

    def _run_sweep(self, pair: _Pair):
        a = crcm.run_chain(self.wr_params, pair.wr_rng, sweeps=1, burn_in=0, thin=1,
                           step=wr.wr_step, state=pair.wr_state, per_sweep=self.wr_per_sweep)
        b = crcm.run_chain(self.cr_params, pair.cr_rng, sweeps=1, burn_in=0, thin=1,
                           state=pair.cr_state)
        return a, b

    def warm_up(self):
        rng = np.random.default_rng(0)
        self._sweep(_Pair(wr.new_wr_chain(self.wr_params, rng),
                          crcm.new_chain(self.cr_params, rng), rng, rng))

    def step(self, i):
        t = time.perf_counter()
        try:
            if self.current is None:
                self.current = self._new_pair()
            pair = self.current
            row = self._sweep(pair)
        except Exception:
            if self.current is not None:
                self.current.failed = True
            self.current = None
            return Step(1, [time.perf_counter() - t], 1)
        dt = time.perf_counter() - t
        pair.sweeps += 1
        if pair.sweeps > self.burn_in:
            pair.rows.append(row)
        if pair.sweeps == self.burn_in + self.recorded:
            self.current = None
        return Step(1, [dt])

    def _traces(self, pair: _Pair):
        rows = np.asarray(pair.rows, dtype=float).reshape(-1, 6)
        return rows[:, :3].T, rows[:, 3:].T

    def check(self):
        tested = [p for p in self.pairs
                  if not p.failed and len(p.rows) // self.ks_thin >= self.min_ks_samples]
        threshold = self.alpha / (3 * max(1, len(tested)))
        min_p = 1.0
        failed = 0
        for p in self.pairs:
            if p.failed:
                continue
            ok = True
            try:
                p.wr_state.audit()
                p.cr_state.audit()
            except RuntimeError:
                ok = False
            if p in tested:
                w, c = self._traces(p)
                for a, b in zip(w, c):
                    pv = stats.ks_2samp(a[::self.ks_thin], b[::self.ks_thin],
                                        method="asymp").pvalue
                    min_p = min(min_p, pv)
                    ok = ok and pv >= threshold
            if not ok:
                failed += p.sweeps
        self.details.update(pairs=len(self.pairs), ks_tested_pairs=len(tested),
                            ks_min_p=min_p, ks_threshold=threshold)
        return failed

    def effective_samples(self):
        """Sum over chains of the smallest ESS of its three traces."""
        total = 0.0
        for p in self.pairs:
            if p.failed or len(p.rows) < 4:
                continue
            for trace in self._traces(p):
                total += min(ess(row) for row in trace)
        return total

    def chain_traces(self):
        out = {"widom_rowlinson": [], "crcm": []}
        for p in self.pairs:
            if len(p.rows) >= 16:
                w, c = self._traces(p)
                out["widom_rowlinson"].append(w)
                out["crcm"].append(c)
        return out


# ---------------------------------------------------------------------------
# oracle: importance-sampling estimate of E[n_cc], one reference draw per unit
# ---------------------------------------------------------------------------


class Oracle(Workload):
    """E[n_cc] under the cluster-weighted law by importance_oracle.

    q is 1.5, not 2: the reference draws, hence the time and memory, do not
    depend on q, but at q=2 the weights 2**n_cc are so heavy-tailed that
    importance_oracle refuses about 2% of 20k-draw calls (DegenerateWeights);
    see README.md."""

    name = "oracle"
    z, q, radius = 50.0, 1.5, 0.05
    draws_per_call = 10_000
    check_burn_in, check_sweeps = 100, 600
    agree_se = 4.0
    giant_k = 64  # above this, crcm._batch_component_counts goes per sample

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.params = ModelParams(self.z, self.q, DiracRadius(self.radius), Box(*UNIT_SQUARE))
        self.results: list = []
        self.tally = {"oracle.draws": 0.0, "oracle.balls": 0.0, "oracle.giant_draws": 0.0}

    def f(self, counts, n_cc):
        """The statistic: component count.  Also tallies draw sizes."""
        self.tally["oracle.draws"] += counts.size
        self.tally["oracle.balls"] += float(counts.sum())
        self.tally["oracle.giant_draws"] += float(np.count_nonzero(counts > self.giant_k))
        return n_cc.astype(float)

    def _rng(self, i):
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(i,)))

    def warm_up(self):
        # untimed and unchecked: min_ess=0 so a small warm-up batch never raises
        crcm.importance_oracle(self.params, lambda c, n: n, 1000, np.random.default_rng(0),
                               min_ess=0.0)

    def step(self, i):
        t = time.perf_counter()
        try:
            res = crcm.importance_oracle(self.params, self.f, self.draws_per_call, self._rng(i))
        except Exception:
            return Step(self.draws_per_call, [(time.perf_counter() - t) / self.draws_per_call],
                        self.draws_per_call)
        dt = time.perf_counter() - t
        finite = all(math.isfinite(v) for v in (res.estimate, res.se, res.z_hat, res.ess))
        if finite:
            self.results.append(res)
        return Step(self.draws_per_call, [dt / self.draws_per_call],
                    0 if finite else self.draws_per_call)

    def pooled(self) -> tuple[float, float]:
        """Self-normalized estimate over every draw of the run, and its SE:
        batch b carries total raw weight n_b * z_hat_b."""
        w = np.array([r.n_samples * r.z_hat for r in self.results])
        est = np.array([r.estimate for r in self.results])
        se = np.array([r.se for r in self.results])
        return float(w @ est / w.sum()), float(np.sqrt(np.sum((w * se) ** 2)) / w.sum())

    def reference(self) -> tuple[float, float]:
        """Independent estimate of E[n_cc] from the birth-death chain at the
        same parameters: trace mean and its ESS-based standard error."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(10**6,)))
        rep = crcm.run_chain(self.params, rng, sweeps=self.check_sweeps,
                             burn_in=self.check_burn_in, thin=1)
        x = rep.n_cc.astype(float)
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(ess(x)))

    def check(self):
        if not self.results:
            return 0
        est, se = self.pooled()
        ref, ref_se = self.reference()
        gap = abs(est - ref) / math.hypot(se, ref_se)
        self.details.update(estimate=est, se=se, chain_estimate=ref, chain_se=ref_se,
                            gap_in_se=gap)
        if gap <= self.agree_se:
            return 0
        return self.draws_per_call * len(self.results)

    def effective_samples(self):
        return float(sum(r.ess for r in self.results))

    def layer_counts(self):
        return dict(self.tally)


# ---------------------------------------------------------------------------
# cli_suite: every subcommand once per pass, in-process through main()
# ---------------------------------------------------------------------------

# Small fixed specs.  The runs must exit 0, except gnz-check, fk-check and
# dlr-check: each ends in a statistical test with a fixed gate, which at these
# small specs rejects for a few percent of seeds (README.md gives the rate).
# For those three, exit 2 (the test rejected) is accepted when the verdict
# in the CSV agrees with the numbers in it.
SUITE = (
    ("sample-poisson", {"z": "40", "law": "dirac:0.05", "samples": "8"},
     ["summary.csv", "config_0000.csv", "config_0007.csv"]),
    ("sample-crcm", {"z": "0.02", "q": "2", "law": "tpareto:2,20", "window": "-20,-20:20,20",
                     "sweeps": "40", "burn_in": "10", "thinning": "2", "checkpoint_every": "20"},
     ["trace_000.csv", "final_config_000.csv", "checkpoint.json"]),
    ("sample-wr", {"z": "100", "q": "2", "law": "dirac:0.04", "sweeps": "40", "burn_in": "10",
                   "thinning": "2"},
     ["trace_000.csv", "final_config_000.csv"]),
    ("gnz-check", {"model": "wr", "z": "6", "q": "2", "law": "dirac:0.15", "sweeps": "600",
                   "burn_in": "60", "thinning": "6", "inner_points": "32"},
     ["gnz.csv"]),
    ("fk-check", {"z": "4", "q": "2", "law": "dirac:0.1", "chains": "2", "sweeps": "150",
                  "burn_in": "30", "thinning": "3"},
     ["fk.csv"]),
    ("dlr-check", {"z": "2", "q": "2", "law": "dirac:0.1", "sweeps": "100", "burn_in": "20",
                   "thinning": "2"},
     ["dlr.csv"]),
    ("bounds-audit", {"z": "0.1", "law": "uniform:0.2,1", "window": "-4,-4:4,4", "samples": "20",
                      "r0": "1"},
     ["bounds.csv"]),
    ("localization", {"z": "0.02", "q": "1", "law": "tpareto:2,30", "window": "-20,-20:20,20",
                      "ij": "5:14", "r0": "2", "samples": "20"},
     ["localization.csv"]),
    ("shield", {"alpha": "1", "k": "4", "trials": "5000"},
     ["shield.csv"]),
    ("entropy-bounds", {"q": "2", "law": "dirac:1", "y_grid": "10"},
     ["entropy_bounds.csv"]),
    ("np-decay", {"q": "2", "law": "dirac:1", "window": "0,0:6,6", "z_grid": "0.2,0.4",
                  "chains": "1", "sweeps": "60", "burn_in": "20", "thinning": "3", "border": "1"},
     ["np_decay.csv"]),
    ("coverage-probe", {"z": "1", "law": "pareto:2", "h_grid": "0.5,2,8", "trials": "40"},
     ["coverage.csv"]),
)


def cli_args(sub: str, spec: dict, seed: int, out: Path) -> list[str]:
    args = [sub, "--seed", str(seed), "--out", str(out)]
    for k, v in spec.items():
        args += ["--set", f"{k}={v}"]
    return args


class CliSuite(Workload):
    """One step is one pass over the suite.  Its timed sample is the mean
    time per subcommand in the pass: the subcommands differ tenfold in cost,
    so a median over single runs would jump between them."""

    name = "cli_suite"
    suite = SUITE

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.runs: list[tuple[str, Path, int, list[str]]] = []

    def run_one(self, i: int) -> float:
        sub, spec, expected = self.suite[i % len(self.suite)]
        out = self.out / f"pass{i // len(self.suite):03d}" / sub
        args = cli_args(sub, spec, unit_seed(self.seed, i), out)
        buf = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if self.tracer is None:
                code = cli.main(args)
            else:
                with self.tracer.span(f"cli_runner.{sub}"):
                    code = cli.main(args)
        dt = time.perf_counter() - t
        self.runs.append((sub, out, code, expected))
        return dt

    def step(self, i):
        n = len(self.suite)
        total = sum(self.run_one(i * n + j) for j in range(n))
        return Step(n, [total / n])

    def check(self):
        failed = rejections = 0
        for sub, out, code, expected in self.runs:
            ok = all((out / name).is_file() for name in [*expected, "manifest.json"])
            if ok and sub in VERDICTS and code in (cli.EXIT_OK, cli.EXIT_TEST):
                ok = VERDICTS[sub](out / expected[0]) == (code == cli.EXIT_OK)
                rejections += code == cli.EXIT_TEST
            else:
                ok = ok and code == cli.EXIT_OK
            failed += not ok
        self.details["statistical_rejections"] = rejections
        return failed


def _read_csv(path: Path) -> tuple[dict, list[list[str]]]:
    """Header key=value pairs and data rows of a cli_runner CSV."""
    lines = path.read_text().splitlines()
    meta = dict(tok.split("=", 1) for tok in lines[0].lstrip("# ").split())
    return meta, [ln.split(",") for ln in lines[2:]]


def _verdict(pass_when):
    """Check that the CSV's pass flag matches its numbers; return the flag."""
    def verdict(path: Path):
        meta, rows = _read_csv(path)
        flag = meta["pass"] == "1"
        return flag if flag == pass_when(meta, rows) else None
    return verdict


VERDICTS = {
    # residual column below 4 for every statistic (cmd_gnz_check, no control)
    "gnz-check": _verdict(lambda meta, rows: all(float(r[4]) < 4.0 for r in rows)),
    # no p-value below the Bonferroni threshold written in the header
    "fk-check": _verdict(lambda meta, rows: all(
        float(r[2]) >= float(meta["threshold"]) for r in rows)),
    # both KS p-values above 0.01 / 2 (cmd_dlr_check)
    "dlr-check": _verdict(lambda meta, rows: min(float(r[1]) for r in rows) > 0.01 / 2),
}


WORKLOADS = {w.name: w for w in (Audit, Coupling, Oracle, CliSuite)}
