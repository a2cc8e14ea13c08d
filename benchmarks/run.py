"""crcmlab benchmark.

    python3 benchmarks/run.py --workload audit --seed 1 --seconds 15 --trace 0

Workloads: audit, coupling, oracle, cli_suite, or `all` to run each in turn
in its own process and print one table.  Run from the repository root; the
program is imported from ./src, so nothing needs installing.

--trace 0 prints the end-to-end metrics (units_per_s, unit_p50_ms, setup_s,
peak_rss_mb).  --trace 1 runs the body untraced for half the time, then
replays the same units with every crcmlab layer wrapped by tracer.py, and
prints per-layer calls, self time, ratios and the tracing overhead.  Spans
go to .bench_out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the load is one Python process; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2  # extra set-ups in child processes; setup_s is the median of 3
SETUP_CALIBRATIONS = 15
CALIBRATE_EVERY_S = 0.05  # one calibration kernel per this much step time
NAMES = ("audit", "coupling", "oracle", "cli_suite")

END_TO_END_UNITS = {"units_per_s": "1/s", "unit_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def fail(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import crcmlab from this checkout's src/, and nothing else."""
    if not (SRC / "crcmlab" / "__init__.py").is_file():
        fail(f"no crcmlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import crcmlab

    if Path(crcmlab.__file__).resolve().parent != (SRC / "crcmlab").resolve():
        fail(f"imported crcmlab from {crcmlab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> tuple[str, int]:
    import ctypes
    import glob

    import numpy as np

    version = np.__config__.CONFIG["Build Dependencies"]["blas"].get("version", "unknown")
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    threads = -1
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return str(version), threads


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas_version, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "openblas_threads": blas_threads,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# timed body
# ---------------------------------------------------------------------------


def timed_body(workload, seconds=None, steps=None) -> dict:
    """Call workload.step until `seconds` of step time have passed or until
    `steps` steps are done.  Between steps, outside the measured time, the
    calibration kernel runs once per CALIBRATE_EVERY_S of step time; all
    times are then scaled to the reference host speed."""
    from measure import HostClock

    clock = HostClock()
    raw_times: list[float] = []
    units = failed = i = 0
    raw_wall = 0.0
    while True:
        if steps is not None:
            if i >= steps:
                break
        elif raw_wall >= seconds:
            break
        t = time.perf_counter()
        st = workload.step(i)
        dt = time.perf_counter() - t
        clock.sample(max(1, min(20, round(dt / CALIBRATE_EVERY_S))))
        i += 1
        units += st.units
        failed += st.failed
        raw_wall += dt
        raw_times.extend(st.unit_times)
    scale = clock.scale()
    return {"wall": raw_wall * scale, "raw_wall": raw_wall, "steps": i, "units": units,
            "failed": failed, "unit_times": [u * scale for u in raw_times],
            "raw_unit_times": raw_times, "calibration_median_s": clock.median_s()}


def scaled_setup() -> float:
    """Set-up time since the start of this process, at reference host speed."""
    from measure import HostClock

    raw = time.perf_counter() - _T0
    clock = HostClock()
    clock.sample(SETUP_CALIBRATIONS)
    return raw * clock.scale()


def setup_probe(name: str, seed: int) -> float:
    """Set up one workload in a fresh process; its set-up time in seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def build(name: str, seed: int, out: Path):
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed, out)
    w.warm_up()
    return w


def run(args) -> dict:
    import numpy as np

    import measure
    from tracer import Tracer, per_layer_names

    w = build(args.workload, args.seed, OUT)
    own_setup = scaled_setup()
    report: dict = {"workload": args.workload, "env": environment(args.seed)}

    if not args.trace:
        body = timed_body(w, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = body["failed"] + w.check()
        setups = [own_setup] + [setup_probe(args.workload, args.seed)
                                for _ in range(SETUP_PROBES)]
        times = np.asarray(body["unit_times"])
        metrics = {
            "units_per_s": body["units"] / body["wall"],
            "unit_p50_ms": float(np.median(times)) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        report.update(attempted=body["units"], failed=failed, wall_s=body["wall"],
                      unit_samples=int(times.size), setups_s=setups,
                      raw={"wall_s": body["raw_wall"],
                           "units_per_s": body["units"] / body["raw_wall"],
                           "unit_p50_ms": float(np.median(body["raw_unit_times"])) * 1e3},
                      calibration_median_ms=body["calibration_median_s"] * 1e3)
    else:
        # Untraced first, then the same steps again under the tracer, on a
        # fresh workload built from the same seed.
        body = timed_body(w, seconds=args.seconds / 2.0)
        failed = body["failed"] + w.check()
        replay = build(args.workload, args.seed, OUT / "traced")
        tracer = Tracer(args.workload)
        replay.tracer = tracer
        with tracer:
            traced = timed_body(replay, steps=body["steps"])
        failed += traced["failed"] + replay.check()
        tracer.counts.update(replay.layer_counts())
        for layer, traces in replay.chain_traces().items():
            tracer.traces[layer].extend(traces)
        metrics = tracer.metrics()
        pct, tail_s = measure.tail(body["unit_times"])
        metrics["unit_tail_ms"] = tail_s * 1e3
        metrics["ess_per_s"] = w.effective_samples() / body["wall"]
        metrics["trace.overhead_frac"] = traced["wall"] / body["wall"] - 1.0
        span_file = OUT / f"spans_{args.workload}_seed{args.seed}.npz"
        tracer.write(span_file)
        assert set(metrics) == set(per_layer_names())
        report.update(attempted=body["units"] + traced["units"], failed=failed,
                      wall_s=body["wall"], traced_wall_s=traced["wall"],
                      unit_samples=len(body["unit_times"]), unit_tail_percentile=pct,
                      spans=len(tracer.name), span_file=str(span_file.relative_to(ROOT)))
    report["metrics"] = metrics
    report["checks"] = w.details
    return report


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"env {json.dumps(env, sort_keys=True)}")
    rate = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"workload {report['workload']} seed {env['seed']}: {report['attempted']} units, "
          f"{report['failed']} failed, error_rate {rate:.4g}")
    for name, value in report["metrics"].items():
        extra = ""
        if name == "unit_p50_ms":
            extra = f"  (median of {report['unit_samples']} timed samples)"
        elif name == "setup_s":
            extra = f"  (median of {len(report['setups_s'])} set-ups)"
        elif name == "unit_tail_ms":
            extra = (f"  (p{report['unit_tail_percentile']:g} of "
                     f"{report['unit_samples']} units)")
        print(f"  {name:50s} {value:14.6g} {unit_of(name)}{extra}")


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith((".self_s", ".s")):
        return "s"
    return {
        "geometry.candidates_per_hit": "ratio",
        "geometry.overflow_len": "count",
        "connectivity.removal_split.visited_per_call": "count",
        "crcm.bd_step.us_per_call": "us",
        "widom_rowlinson.wr_step.us_per_call": "us",
        "crcm.iact_max": "sweeps",
        "widom_rowlinson.iact_max": "sweeps",
        "crcm.oracle_draw_size_mean": "count",
        "ess_per_s": "1/s",
        "unit_tail_ms": "ms",
    }.get(name, "ratio")


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or per_layer_unit(name)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k.split(":")[-1])}
                    for k, v in metrics.items()},
    })


def run_all(args) -> None:
    """Each workload in its own process, so each pays its own set-up."""
    rows = {}
    correct, attempted, failed = True, 0, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            fail(f"workload {name} failed: {proc.stderr.strip()[-500:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        rows[name] = res
        rate = res["failed"] / res["attempted"]
        print(f"{name}: {res['attempted']} units, {res['failed']} failed, "
              f"error_rate {rate:.4g}")
        for metric, v in res["metrics"].items():
            if not args.trace or v["value"]:
                print(f"  {metric:50s} {v['value']:14.6g} {v['unit']}")
    print(result_line(correct, attempted, failed, {
        f"{name}:{metric}": v["value"]
        for name, res in rows.items() for metric, v in res["metrics"].items()}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("need --seed >= 0 and --seconds > 0")
    import_program()
    if args.workload == "all":
        run_all(args)
        return
    if args.setup_probe:
        build(args.workload, args.seed, OUT / "setup_probe")
        print(scaled_setup())
        return
    report = run(args)
    correct = report["failed"] == 0
    report["correct"] = correct
    OUT.mkdir(exist_ok=True)
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True, default=float) + "\n")
    print_report(report)
    print(result_line(correct, report["attempted"], report["failed"], report["metrics"]))


if __name__ == "__main__":
    main()
