"""The import graph: conelab runs on numpy alone and never loads scipy.

Each case runs in a fresh interpreter, since this process has scipy loaded
already (the tests use it as a reference).  ``import conelab``, ``conelab
sample``, ``conelab decompose`` and ``conelab run`` of every suite, the
permutation tests, cone Gamma functions and the quadrature check included,
leave no scipy module in ``sys.modules``.  A child pinned to one CPU before
it imports numpy sizes the permutation pool to one worker and writes the
same bytes as an unpinned child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conelab
from conelab import cli

SRC = str(Path(conelab.__file__).resolve().parent.parent)


# print the exit status of ``cli.main(argv)`` (None: no command) and the scipy modules loaded
PROBE = """
import json, sys
import conelab, conelab.cli
status = conelab.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps([status, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def fresh_python(code, *argv):
    """The last line of stdout, as JSON, of a fresh interpreter running ``code`` with ``argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def fresh_run(*argv):
    """(exit status, scipy modules) of a fresh interpreter running ``conelab *argv``."""
    return tuple(fresh_python(PROBE, *argv))


def config(tmp_path, **fields):
    cfg = {"seed": 3, "out_dir": str(tmp_path / "out"), **fields}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_import_loads_no_scipy():
    assert fresh_run() == (None, [])


@pytest.mark.parametrize(
    "command, fields",
    [
        ("sample", {"algebra": "herm_complex(3)", "n": 200, "distribution": {"type": "riesz", "s": [3.0, 2.5, 4.0]}}),
        (
            "decompose",
            {
                "algebra": "lorentz(4)",
                "algorithm": "w2",
                "oracle": {"family": "riesz-form", "s1": [2.0, 1.0], "s2": [1.5, 0.5], "grid": {"n_points": 200}},
            },
        ),
    ],
    ids=["sample", "decompose"],
)
def test_sample_and_decompose_load_no_scipy(tmp_path, command, fields):
    assert fresh_run(command, config(tmp_path, **fields)) == (0, [])


def test_every_suite_runs_without_scipy(tmp_path):
    """All seven suites at their default sizes on sym_real(2), where the
    ``distributions`` suite runs the quadrature check, and the permutation
    tests of ``lukacs``."""
    cfg = config(tmp_path, algebra="sym_real(2)", algorithm="w1", suites=list(cli.SUITE_NAMES))
    assert fresh_run("run", cfg) == (0, [])
    reports = {path.stem for path in (tmp_path / "out").glob("*.json")}
    assert set(cli.SUITE_NAMES) <= reports


# pin to one CPU ("pinned") before numpy is imported, so its BLAS starts one
# thread too; print the pool's worker count and the exit status of each
# ``cli.main(argv)`` of the JSON list argv[2]
PINNED_PROBE = """
import json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import conelab.cli
from conelab import _stats
print(json.dumps([_stats._pool_workers(), [conelab.cli.main(argv) for argv in json.loads(sys.argv[2])]]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call on this platform")
def test_one_cpu_gives_one_pool_worker_and_the_same_bytes(tmp_path):
    configs = {
        "run": {"suites": ["algebra-axioms", "lukacs"], "samples": {"algebra-axioms": 200, "lukacs": 400}},
        "sample": {"n": 200, "distribution": {"type": "riesz", "s": [2.0, 1.5], "a": "e"}},
        "decompose": {"oracle": {"family": "zero", "grid": {"n_points": 200, "seed": 3}}},
    }
    paths = {}
    for command, fields in configs.items():
        paths[command] = tmp_path / f"{command}.json"
        paths[command].write_text(json.dumps({"seed": 3, "algebra": "sym_real(2)", "algorithm": "w1", **fields}))
    outputs = {}
    for mode in ("pinned", "unpinned"):
        argvs = [[command, str(path), "--out", str(tmp_path / mode)] for command, path in paths.items()]
        workers, statuses = fresh_python(PINNED_PROBE, mode, json.dumps(argvs))
        assert statuses == [0, 0, 0]
        if mode == "pinned":
            assert workers == 1
        outputs[mode] = {path.name: path.read_bytes() for path in sorted((tmp_path / mode).iterdir())}
    assert set(outputs["pinned"]) == {
        "algebra-axioms.json", "lukacs.json", "summary.json", "draws.csv", "decomposition.json",
    }
    assert outputs["pinned"] == outputs["unpinned"]
