"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root with ``python3 -m pytest conebench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import cli
from conelab import lukacs as lk

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def result_line(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def bench_args(workload, trace, seed=3):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--tiny"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace, key):
    result = result_line(capsys, bench_args(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _bindings():
    """Every function value bound in a conelab module, plus the patched class slots."""
    seen = {}
    for name, module in sys.modules.items():
        if name == "conelab" or name.startswith("conelab."):
            for attr, value in vars(module).items():
                if callable(value):
                    seen[(name, attr)] = value
    for suite, fn in cli.SUITES.items():
        seen[("SUITES", suite)] = fn
    seen[("Element", "__post_init__")] = alg.Element.__dict__["__post_init__"]
    seen[("MultiplicationAlgorithm", "__call__")] = ma.MultiplicationAlgorithm.__dict__["__call__"]
    return seen


def test_traced_run_restores_every_original(capsys):
    before = _bindings()
    result_line(capsys, bench_args("generic-kinds", 1))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_patches_every_binding():
    peirce_fn = sys.modules["conelab.peirce"].peirce_projectors
    decompose_fn = sys.modules["conelab.triangular"].triangular_decompose
    suite_fn = cli.SUITES["lukacs"]
    with tracing.Tracer():
        assert sys.modules["conelab.triangular"].peirce_projectors.__wrapped__ is peirce_fn
        assert sys.modules["conelab.distributions"].triangular_decompose.__wrapped__ is decompose_fn
        assert cli.SUITES["lukacs"].__wrapped__ is suite_fn
        assert cli.suite_lukacs is cli.SUITES["lukacs"]


@pytest.mark.parametrize(
    "algebra,spec,want",
    [(alg.lorentz(4), "w2", 1.0), (alg.sym_real(2), "w1", 0.0)],
)
def test_divide_per_point_marks_the_per_element_fallback(algebra, spec, want):
    rng = np.random.default_rng(5)
    w = ma.parse_algorithm(spec, algebra)
    x = np.array([alg.random_cone_element(algebra, rng).coords for _ in range(12)])
    y = np.array([alg.random_cone_element(algebra, rng).coords for _ in range(12)])
    tracer = tracing.Tracer()
    with tracer:
        lk.batch_quotient(w, x, y)
    metrics = run.layer_metrics(tracer)
    assert metrics["lukacs.batch_quotient.points"] == 12
    assert metrics["lukacs.batch_quotient.divide_per_point"] == want


def test_call_counts_repeat_for_a_fixed_seed():
    counts = []
    for _ in range(2):
        metrics, _, _ = run.traced_run("generic-kinds", 7, tiny=True)
        counts.append({
            k: v for k, v in metrics.items()
            if not k.endswith("_s") and not k.startswith("trace.") and "per_" not in k
        })
    assert counts[0] == counts[1]
    assert counts[0]["algebra.jordan_product.calls"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *bench_args("mc-symreal", 0)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
