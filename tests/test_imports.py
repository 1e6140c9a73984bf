"""The import graph: conelab loads scipy only in the functions that call it.

Each case runs in a fresh interpreter, since this process has scipy loaded
already.  ``import conelab``, ``conelab sample``, ``conelab decompose`` and the
suites that need no distance matrix or cone Gamma function leave no scipy
module in ``sys.modules``; a ``lukacs`` run loads ``scipy.spatial``, so the
deferred imports do run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conelab

SRC = str(Path(conelab.__file__).resolve().parent.parent)

SCIPY_FREE_SUITES = ["algebra-axioms", "peirce", "triangular", "mult-alg", "functional-eq"]

# print the exit status of ``cli.main(argv)`` (None: no command) and the scipy modules loaded
PROBE = """
import json, sys
import conelab, conelab.cli
status = conelab.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps([status, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def fresh_run(*argv):
    """(exit status, scipy modules) of a fresh interpreter running ``conelab *argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("CONELAB_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    status, modules = json.loads(done.stdout.strip().splitlines()[-1])
    return status, modules


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
        (
            "run",
            {
                "algebra": "sym_real(2)",
                "suites": SCIPY_FREE_SUITES,
                "samples": {"algebra-axioms": 200, "peirce": 30, "triangular": 30, "mult-alg": 10, "functional-eq": 60},
            },
        ),
    ],
    ids=["sample", "decompose", "run"],
)
def test_commands_without_distances_or_normalizers_load_no_scipy(tmp_path, command, fields):
    assert fresh_run(command, config(tmp_path, **fields)) == (0, [])


def test_lukacs_suite_loads_scipy_spatial(tmp_path):
    status, modules = fresh_run("run", config(tmp_path, suites=["lukacs"], samples={"lukacs": 300}))
    assert status == 0
    assert "scipy.spatial" in modules
