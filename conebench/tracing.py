"""Outside-in layer tracing for the conelab benchmark.

The tracer replaces public ``conelab`` functions with timing wrappers at every
module attribute that binds them (``from x import f`` copies the binding, so
``triangular.peirce_projectors`` and ``peirce.peirce_projectors`` are patched
separately), plus the ``cli.SUITES`` table, ``Element.__post_init__`` and
``MultiplicationAlgorithm.__call__``.  Nothing in the library changes.

Two kinds of wrapper keep memory bounded:

* ``span`` layers (coarse calls, a handful per task) record a span
  ``(id, name, start_ns, end_ns, parent_id)`` kept in memory until the run
  writes them out;
* ``hot`` layers (scalar calls made per element, up to 1e5 per pass) only
  bump counters.

Both accumulate self time: the call's duration minus the time covered by
wrapped calls nested inside it.  The workload is single-threaded, so nested
calls never overlap and the coverage is the sum of the child durations.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    incl_ns: int = 0
    work: int = 0  # layer-specific work count (permutations, rows, draws, points, bytes)
    nested: int = 0  # calls of the watched inner layer made inside this one


@dataclass(frozen=True)
class LayerSpec:
    name: str  # metric prefix, <module>.<function>
    module: str  # conelab submodule holding the original
    attr: str  # attribute name on that module (or class attribute, see owner_class)
    span: bool
    owner_class: Optional[str] = None  # patch this class attribute instead
    work: Optional[Callable] = None  # (args, kwargs, result) -> work units
    nested: Optional[str] = None  # layer whose calls are counted inside this one


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _grid_points(args, kwargs, result):
    grid = _arg(args, kwargs, 5, "grid")
    if grid is None:
        from conelab.funceq import GridSpec

        grid = GridSpec()
    return grid.n_points


def _report_bytes(args, kwargs, result):
    return Path(_arg(args, kwargs, 0, "path")).stat().st_size


# Metric names start with a letter, so the _stats module's layers are "stats.*".
LAYERS = (
    LayerSpec("stats.dcor_permutation_test", "_stats", "dcor_permutation_test", True,
              work=lambda a, k, r: int(_arg(a, k, 2, "n_perm"))),
    LayerSpec("stats.energy_permutation_test", "_stats", "energy_permutation_test", True,
              work=lambda a, k, r: int(_arg(a, k, 2, "n_perm"))),
    LayerSpec("algebra.jordan_product", "algebra", "jordan_product", False),
    LayerSpec("algebra.batch_jordan_product", "algebra", "batch_jordan_product", False,
              work=lambda a, k, r: len(_arg(a, k, 1, "a"))),
    LayerSpec("algebra.lmap", "algebra", "lmap", False),
    LayerSpec("algebra.quad_rep", "algebra", "quad_rep", False),
    LayerSpec("algebra.eigenvalues", "algebra", "eigenvalues", False),
    LayerSpec("algebra.spectral_decompose", "algebra", "spectral_decompose", False),
    LayerSpec("algebra.random_cone_element", "algebra", "random_cone_element", False),
    LayerSpec("algebra.Element", "algebra", "__post_init__", False, owner_class="Element"),
    LayerSpec("peirce.peirce_projectors", "peirce", "peirce_projectors", False),
    LayerSpec("peirce.build_peirce_basis", "peirce", "build_peirce_basis", True),
    LayerSpec("peirce.principal_minor", "peirce", "principal_minor", False),
    LayerSpec("peirce.generalized_power_log", "peirce", "generalized_power_log", False),
    LayerSpec("triangular.triangular_decompose", "triangular", "triangular_decompose", False),
    LayerSpec("triangular.frobenius_transform", "triangular", "frobenius_transform", False),
    LayerSpec("triangular.as_endomorphism", "triangular", "as_endomorphism", False),
    LayerSpec("algorithms.evaluate", "algorithms", "__call__", False,
              owner_class="MultiplicationAlgorithm"),
    LayerSpec("algorithms.divide", "algorithms", "divide", False),
    LayerSpec("distributions.sample_riesz", "distributions", "sample_riesz", True,
              work=lambda a, k, r: int(_arg(a, k, 1, "n")), nested="algebra.jordan_product"),
    LayerSpec("lukacs.batch_quotient", "lukacs", "batch_quotient", True,
              work=lambda a, k, r: len(_arg(a, k, 1, "x")), nested="algorithms.divide"),
    LayerSpec("lukacs.independence_test", "lukacs", "independence_test", True),
    LayerSpec("lukacs.k_invariant_quotient_check", "lukacs", "k_invariant_quotient_check", True),
    LayerSpec("lukacs.factorization_residual", "lukacs", "factorization_residual", True),
    LayerSpec("lukacs.jacobian_check", "lukacs", "jacobian_check", True),
    LayerSpec("funceq.olkin_baker_decompose", "funceq", "olkin_baker_decompose", True,
              work=_grid_points),
    LayerSpec("funceq.pexider_fit", "funceq", "pexider_fit", True),
    LayerSpec("funceq.wlog_residual", "funceq", "wlog_residual", True),
    LayerSpec("funceq.k_invariance_check", "funceq", "k_invariance_check", True),
    LayerSpec("cli.write_report", "cli", "write_report", True, work=_report_bytes),
    LayerSpec("cli.cmd_run", "cli", "cmd_run", True),
)

# Written out rather than read from cli.SUITE_NAMES: the per-layer metric
# names are part of the benchmark's interface and must not follow the library.
SUITE_NAMES = (
    "algebra-axioms", "peirce", "triangular", "mult-alg",
    "distributions", "functional-eq", "lukacs",
)


def _suite_layer(suite: str) -> str:
    return f"cli.suite.{suite}"


class Tracer:
    """Installs wrappers on entry, restores every original on exit."""

    def __init__(self) -> None:
        self.stats: dict = {}
        self.spans: list = []
        self._frames: list = []  # per active wrapped call: [child_ns]
        self._span_stack: list = []
        self._patches: list = []  # (owner, attr, original); owner may be a dict

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool, work=None, nested: Optional[str] = None):
        stats = self.stats.setdefault(name, LayerStats())
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        inner = self.stats.setdefault(nested, LayerStats()) if nested else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            if span:
                span_id = len(spans)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
                spans.append(None)
            inner_before = inner.calls if inner is not None else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                stats.calls += 1
                stats.incl_ns += duration
                stats.self_ns += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if inner is not None:
                    stats.nested += inner.calls - inner_before
                if span:
                    span_stack.pop()
                    spans[span_id] = (span_id, name, start, end, parent)
            if work is not None:
                stats.work += work(args, kwargs, result)
            return result

        return wrapper

    def call(self, name: str, fn: Callable):
        """Run one of the benchmark's own steps (a pass, a task) as a span."""
        return self._wrap(name, fn, True)()

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from conelab import cli  # imports every conelab module

        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "conelab" or key.startswith("conelab."))
        ]
        for spec in LAYERS:
            home = sys.modules[f"conelab.{spec.module}"]
            if spec.owner_class is not None:
                owner = getattr(home, spec.owner_class)
                original = owner.__dict__[spec.attr]
                wrapped = self._wrap(spec.name, original, spec.span, spec.work, spec.nested)
                self._patch(owner, spec.attr, original, wrapped)
                continue
            original = getattr(home, spec.attr)
            wrapped = self._wrap(spec.name, original, spec.span, spec.work, spec.nested)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapped)
        for suite in SUITE_NAMES:
            original = cli.SUITES[suite]
            wrapped = self._wrap(_suite_layer(suite), original, True)
            self._patches.append((cli.SUITES, suite, original))
            cli.SUITES[suite] = wrapped
            for attr, value in list(vars(cli).items()):
                if value is original:
                    self._patch(cli, attr, original, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ----------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())

    def library_self_s(self) -> float:
        """Self time of every wrapped library layer (benchmark spans excluded)."""
        names = {spec.name for spec in LAYERS} | {_suite_layer(s) for s in SUITE_NAMES}
        return sum(s.self_ns for n, s in self.stats.items() if n in names) / 1e9
