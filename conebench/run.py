"""conelab benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 conebench/run.py --workload mc-symreal --seed 1 --seconds 30 --trace 0

``--trace 0`` runs passes over the workload's task list for about
``--seconds`` seconds (at least the workload's minimum pass count) and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced pass and one
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.  A
fuller record, and the spans of a traced run, go to ``.conebench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".conebench_out"
SETUP_PROBES = 5

# (metric suffix, unit, better) for the per-layer metrics; see README.md
CALLS = ("calls", "count", "lower")
SELF = ("self_s", "s", "lower")


def _layer_metric_table() -> list:
    from tracing import LAYERS, SUITE_NAMES

    extra = {
        "stats.dcor_permutation_test": [("perms", "count", "lower"), ("ms_per_perm", "ms", "lower")],
        "stats.energy_permutation_test": [("perms", "count", "lower"), ("ms_per_perm", "ms", "lower")],
        "algebra.batch_jordan_product": [("rows", "count", "higher")],
        "distributions.sample_riesz": [
            ("draws", "count", "higher"),
            ("us_per_draw", "us", "lower"),
            ("jordan_per_draw", "count/draw", "lower"),
        ],
        "lukacs.batch_quotient": [("points", "count", "higher"), ("divide_per_point", "count/point", "lower")],
        "funceq.olkin_baker_decompose": [("points", "count", "higher")],
        "cli.write_report": [("bytes", "B", "lower")],
    }
    table = []
    for spec in LAYERS:
        if spec.name == "algebra.Element":
            table += [("algebra.Element.created", "count", "lower"), ("algebra.Element.self_s", "s", "lower")]
            continue
        base = [SELF] if spec.name == "cli.cmd_run" else [CALLS, SELF]
        for suffix, unit, better in base + extra.get(spec.name, []):
            table.append((f"{spec.name}.{suffix}", unit, better))
    table += [(f"cli.suite.{s}.self_s", "s", "lower") for s in SUITE_NAMES]
    table += [
        ("trace.pass_s", "s", "lower"),
        ("trace.library_self_s", "s", "lower"),
        ("trace.covered_share", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return table


END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import importlib.util

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads_env = os.environ.get("CONELAB_THREADS")
    has_threadpoolctl = importlib.util.find_spec("threadpoolctl") is not None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "CONELAB_THREADS": threads_env,
        "threadpoolctl_available": has_threadpoolctl,
        # cli applies CONELAB_THREADS through threadpoolctl and silently skips it otherwise
        "conelab_threads_applied": bool(threads_env) and has_threadpoolctl,
    }


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def measure_setup(workload: str, seed: int, tiny: bool) -> list:
    """Set-up seconds of fresh processes: interpreter start, imports, build."""
    times = []
    for _ in range(1 if tiny else SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
        cmd += ["--tiny"] if tiny else []
        t0 = time.monotonic()
        cmd += ["--setup-probe", repr(t0)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_run(workload: str, seed: int, seconds: float, tiny: bool) -> tuple:
    from workloads import WORKLOADS, Ledger, Runner

    setup_times = measure_setup(workload, seed, tiny)
    wl = WORKLOADS[workload](seed, OUT, tiny)
    ledger = Ledger()
    runner = Runner(ledger)
    pass_times = []
    per_verdict = []  # per pass: verdict seconds over verdict count
    begin = time.perf_counter()
    while True:
        done = len(runner.verdict_seconds)
        start = time.perf_counter()
        wl.run_pass(len(pass_times), runner)
        pass_times.append(time.perf_counter() - start)
        verdicts = runner.verdict_seconds[done:]
        per_verdict.append(sum(verdicts) / len(verdicts) if verdicts else 0.0)
        elapsed = time.perf_counter() - begin
        if len(pass_times) >= wl.min_passes and elapsed + statistics.median(pass_times) > seconds:
            break
    verdicts = runner.verdict_seconds
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "verdict_s": statistics.median(per_verdict),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    judged = ledger.judge()
    details = {
        "setup_s_samples": setup_times,
        "pass_s_samples": pass_times,
        "pass_s_quartiles": quartiles(pass_times),
        "passes": len(pass_times),
        "verdict_s_samples": verdicts,
        "verdict_s_per_pass": per_verdict,
        **judged,
    }
    return metrics, details


def traced_run(workload: str, seed: int, tiny: bool) -> tuple:
    from tracing import Tracer
    from workloads import WORKLOADS, Ledger, Runner

    wl = WORKLOADS[workload](seed, OUT, tiny)
    ledger = Ledger()
    start = time.perf_counter()
    wl.run_pass(0, Runner(ledger))
    untraced = time.perf_counter() - start
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        tracer.call("pass", lambda: wl.run_pass(1, Runner(ledger, tracer)))
        traced = time.perf_counter() - start
    library = tracer.library_self_s()
    metrics = layer_metrics(tracer)
    metrics.update({
        "trace.pass_s": traced,
        "trace.library_self_s": library,
        "trace.covered_share": library / traced,
        "trace.overhead_ratio": traced / untraced,
    })
    judged = ledger.judge()
    details = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        **judged,
    }
    spans = [
        {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
        for i, n, s, e, p in tracer.spans
    ]
    return metrics, details, spans


def layer_metrics(tracer) -> dict:
    out = {}
    for name, _, _ in _layer_metric_table():
        layer, _, quantity = name.rpartition(".")
        if layer.startswith("trace"):
            continue
        st = tracer.layer(layer)
        if quantity == "calls" or quantity == "created":
            value = st.calls
        elif quantity == "self_s":
            value = st.self_ns / 1e9
        elif quantity in ("perms", "rows", "draws", "points", "bytes"):
            value = st.work
        elif quantity == "ms_per_perm":
            value = st.self_ns / 1e6 / st.work if st.work else 0.0
        elif quantity == "us_per_draw":
            value = st.incl_ns / 1e3 / st.work if st.work else 0.0
        elif quantity in ("jordan_per_draw", "divide_per_point"):
            value = st.nested / st.work if st.work else 0.0
        else:
            raise KeyError(name)
        out[name] = value
    return out


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc-symreal", "generic-kinds", "cli-three-kinds"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    # set-up probe: build the workload and print the seconds since T0 (time.monotonic)
    parser.add_argument("--setup-probe", type=float, metavar="T0", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "conelab" / "__init__.py").is_file():
        print(f"error: no conelab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import conelab

    if Path(conelab.__file__).resolve().parent != src / "conelab":
        print(f"error: imported conelab from {conelab.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.setup_probe is not None:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, OUT, args.tiny)
        print(time.monotonic() - args.setup_probe)
        return 0

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    stem = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details, spans = traced_run(args.workload, args.seed, args.tiny)
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
        units = {name: unit for name, unit, _ in _layer_metric_table()}
    else:
        metrics, details = timed_run(args.workload, args.seed, args.seconds, args.tiny)
        units = dict(END_TO_END)
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "environment": env, "details": details, "result": result}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    for name, message in details["errors"]:
        print(f"task {name} raised {message}", file=sys.stderr)
    for name, value in details["failed_checks"]:
        print(f"check {name} failed (value {value})", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
