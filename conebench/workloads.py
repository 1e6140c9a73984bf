"""The benchmark's three workloads and the correctness gate they feed.

Every input is generated from the run seed; the library receives only those
inputs.  A workload is built once (the set-up the ``setup_s`` metric times)
and then runs passes over a fixed task list.  Each task is executed through a
``runner`` that times it, counts a raised exception as a failed check and,
in a traced run, wraps it in a span.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import cli
from conelab import distributions as dist
from conelab import funceq as fe
from conelab import lukacs as lk
from conelab.peirce import PowerExponent

# Monte-Carlo groups and the share of misses their acceptance criterion
# allows: criterion 7 allows 2 of 50 matched and 2 of 50 shifted-scale
# verdicts to miss, criterion 9 allows 2 of 20 Wishart rotations to reject
# and 6 of 20 Riesz rotations not to.
ALLOWED_MISS_SHARE = {
    "crit7.matched_independent": 2 / 50,
    "crit7.shifted_dependent": 2 / 50,
    "crit9.wishart_invariant": 2 / 20,
    "crit9.riesz_not_invariant": 6 / 20,
}
# A group fails when its misses are this unlikely at the allowed share.
GROUP_ALPHA = 0.01

BIJECTION_TOL = 1e-10
BIJECTION_POINTS = 20
RECOVERY_TOL = 1e-3

# Sample sizes of acceptance criterion 10, the repository's reduced
# `conelab run` configuration; at the defaults one pass over the three
# configs takes about 60 s on a 2-core machine.
CLI_SAMPLES = {
    "algebra-axioms": 500,
    "peirce": 60,
    "triangular": 60,
    "mult-alg": 30,
    "distributions": 4000,
    "functional-eq": 80,
    "lukacs": 600,
}
# The lukacs suite's independence check is one permutation p-value on matched
# models; like criterion 7 it is a Monte-Carlo verdict, so it is judged with
# criterion 7's allowance instead of as an exact check.
MC_SUITE_CHECK = ("lukacs", "independence_p")
CLI_CONFIGS = (
    ("sym_real(2)", "w1"),
    ("herm_complex(3)", "w2"),
    ("lorentz(4)", "w2"),
)


def binom_tail(misses: int, k: int, share: float) -> float:
    """P(X >= misses) for X ~ Binomial(k, share)."""
    return sum(
        math.comb(k, j) * share**j * (1.0 - share) ** (k - j) for j in range(misses, k + 1)
    )


@dataclass
class Ledger:
    """Checks attempted in a run; Monte-Carlo verdicts are judged per group."""

    checks: list = field(default_factory=list)  # (name, passed, value)
    groups: dict = field(default_factory=dict)  # group -> list of (name, hit, p_value)
    errors: list = field(default_factory=list)

    def check(self, name: str, passed: bool, value=None) -> None:
        self.checks.append((name, bool(passed), value))

    def verdict(self, group: str, name: str, hit: bool, value) -> None:
        self.groups.setdefault(group, []).append((name, bool(hit), value))

    def error(self, name: str, exc: BaseException) -> None:
        self.errors.append((name, f"{type(exc).__name__}: {exc}"))

    def judge(self) -> dict:
        attempted = len(self.checks) + len(self.errors)
        failed = sum(not ok for _, ok, _ in self.checks) + len(self.errors)
        group_report = {}
        for group, items in sorted(self.groups.items()):
            misses = sum(not hit for _, hit, _ in items)
            tail = binom_tail(misses, len(items), ALLOWED_MISS_SHARE[group])
            ok = misses == 0 or tail >= GROUP_ALPHA
            attempted += len(items)
            failed += 0 if ok else misses
            group_report[group] = {
                "verdicts": len(items),
                "misses": misses,
                "allowed_share": ALLOWED_MISS_SHARE[group],
                "tail_probability": tail,
                "passed": ok,
            }
        return {
            "attempted": attempted,
            "failed": failed,
            "fail_share": failed / max(attempted, 1),
            "groups": group_report,
            "failed_checks": [(n, v) for n, ok, v in self.checks if not ok],
            "errors": self.errors,
        }


class Runner:
    """Times tasks; a raised exception is recorded as a failed check."""

    def __init__(self, ledger: Ledger, tracer=None) -> None:
        self.ledger = ledger
        self.tracer = tracer
        self.verdict_seconds: list = []

    def __call__(self, name: str, fn, verdict: bool = False):
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.call(f"task.{name}", fn)
            else:
                result = fn()
        except Exception as exc:  # a failing task is a measured outcome, not a crash
            self.ledger.error(name, exc)
            return None
        if verdict:
            self.verdict_seconds.append(time.perf_counter() - start)
        return result


def bijection_residual(w, x: np.ndarray, y: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Max relative error of inverse_map on quotient rows (u, v) computed from (x, y)."""
    algebra = w.algebra
    worst = 0.0
    for xi, yi, ui, vi in zip(x, y, u, v):
        x2, y2 = lk.inverse_map(alg.Element(algebra, ui), alg.Element(algebra, vi), w)
        xe, ye = alg.Element(algebra, xi), alg.Element(algebra, yi)
        err = alg.norm(x2 - xe) + alg.norm(y2 - ye)
        worst = max(worst, err / (alg.norm(xe) + alg.norm(ye)))
    return worst


def min_eigenvalue(algebra, coords: np.ndarray) -> float:
    """Smallest eigenvalue over a batch of coordinate rows."""
    if algebra.is_matrix_kind:
        return float(np.linalg.eigvalsh(alg.coords_to_mats(algebra, coords)).min())
    return float(np.min(coords[:, 0] - np.linalg.norm(coords[:, 1:], axis=1)))


def coords_of(elements) -> np.ndarray:
    return np.array([x.coords for x in elements])


# ---------------------------------------------------------------------------
# mc-symreal
# ---------------------------------------------------------------------------


class McSymReal:
    """Monte-Carlo verdicts of criteria 7, 8 and 9 on sym_real(2), standard frame."""

    min_passes = 1

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.n = 400 if tiny else 5000
        self.n_perm = 199
        self.m_dcor = 100 if tiny else 1024
        self.m_energy = 100 if tiny else 1250
        self.n_draws = 2000 if tiny else 100_000
        a = alg.sym_real(2)
        frame = alg.standard_frame(a)
        self.wq = ma.w1(a)
        self.wt = ma.w2(frame)
        scale = alg.from_matrix(a, np.array([[1.2, 0.2], [0.2, 0.9]]))
        shifted = alg.from_matrix(a, scale.to_matrix() + 0.5 * np.eye(2))
        self.mx = dist.wishart_model(dist.WishartParams(2.5, scale), self.wq)
        self.my = dist.wishart_model(dist.WishartParams(3.0, scale), self.wq)
        self.my_bad = dist.wishart_model(dist.WishartParams(2.5, shifted), self.wq)
        self.r1 = dist.riesz_model(dist.RieszParams(PowerExponent.of((3.0, 1.0)), scale, frame), self.wt)
        self.r2 = dist.riesz_model(dist.RieszParams(PowerExponent.of((2.0, 1.3)), scale, frame), self.wt)
        scale8 = alg.from_matrix(a, np.array([[1.5, 0.3], [0.3, 1.2]]))
        self.p8 = 2.3
        self.scale8 = scale8
        self.sampler = dist.WishartParams(self.p8, scale8).as_riesz(frame)
        self.quadrature = dist.RieszParams(PowerExponent.of((2.8, 1.6)), scale8, frame)

    def run_pass(self, index: int, run: Runner) -> None:
        ledger = run.ledger
        streams = np.random.SeedSequence([self.seed, index]).spawn(6)
        rng_x, rng_y, rng_t, rng_m, rng_k, rng_s = [np.random.default_rng(s) for s in streams]
        # criterion 7: one replicate of four distance-correlation verdicts
        cases = (
            ("dcor.wishart_w1", self.mx, self.my, self.wq, "crit7.matched_independent"),
            ("dcor.riesz_w2", self.r1, self.r2, self.wt, "crit7.matched_independent"),
            ("dcor.shifted_1", self.mx, self.my_bad, self.wq, "crit7.shifted_dependent"),
            ("dcor.shifted_2", self.mx, self.my_bad, self.wq, "crit7.shifted_dependent"),
        )
        for name, mx, my, w, group in cases:
            rng_b = rng_m if group == "crit7.shifted_dependent" else rng_y

            def verdict(mx=mx, my=my, w=w, rng_b=rng_b):
                xs = mx.sample(self.n, rng_x)
                ys = my.sample(self.n, rng_b)
                rep = lk.independence_test(
                    xs, ys, w, n_perm=self.n_perm, rng=rng_t, max_points=self.m_dcor
                )
                return xs, ys, rep

            out = run(name, verdict, verdict=True)
            if out is None:
                continue
            xs, ys, rep = out
            if group == "crit7.matched_independent":
                ledger.verdict(group, name, rep.p_value > 0.01, rep.p_value)
                xh = coords_of(xs[:BIJECTION_POINTS])
                yh = coords_of(ys[:BIJECTION_POINTS])
                resid = run(
                    f"bijection.{name}",
                    lambda: bijection_residual(w, xh, yh, *lk.batch_quotient(w, xh, yh)),
                )
                if resid is not None:
                    ledger.check(f"bijection.{name}", resid <= BIJECTION_TOL, resid)
            else:
                ledger.verdict(group, name, rep.p_value < 0.01, rep.p_value)
        # criterion 9: one rotation each for the Wishart/w1 and Riesz/w2 quotients
        for name, mx, my, w, group in (
            ("energy.wishart_w1", self.mx, self.my, self.wq, "crit9.wishart_invariant"),
            ("energy.riesz_w2", self.r1, self.r1, self.wt, "crit9.riesz_not_invariant"),
        ):
            rep = run(
                name,
                lambda mx=mx, my=my, w=w: lk.k_invariant_quotient_check(
                    mx, my, w, rng_k, n=self.n, n_rotations=1,
                    n_perm=self.n_perm, max_points=self.m_energy,
                ),
                verdict=True,
            )
            if rep is not None:
                rejected = rep.n_reject == 1
                hit = rejected if group == "crit9.riesz_not_invariant" else not rejected
                ledger.verdict(group, name, hit, rep.p_values[0])
        # criterion 8: sampler mean and the rank-2 density mass
        out = run("sampler", lambda: self._sampler_check(rng_s))
        if out is not None:
            sigmas, mass, spot = out
            ledger.check("crit8.wishart_mean_sigmas", sigmas <= 4.0, sigmas)
            ledger.check("crit8.density_mass", abs(mass - 1.0) <= 1e-3, mass)
            ledger.check("crit8.quadrature_spot", spot <= 1e-10, spot)

    def _sampler_check(self, rng):
        coords = coords_of(dist.sample_riesz(self.sampler, self.n_draws, rng))
        mean = coords.mean(axis=0)
        se = coords.std(axis=0, ddof=1) / math.sqrt(len(coords))
        target = self.p8 * alg.inverse(self.scale8).coords
        sigmas = float(np.max(np.abs(mean - target) / se))
        mass, spot = dist.riesz_normalization_quadrature(self.quadrature, 48, 48, 32)
        return sigmas, mass, spot


# ---------------------------------------------------------------------------
# generic-kinds
# ---------------------------------------------------------------------------


@dataclass
class KindFixture:
    algebra: object
    w2: object
    interp: object
    px: object
    py: object
    oracles: tuple = ()


class GenericKinds:
    """Per-element paths on herm_complex(3) and lorentz(4) with w2; no permutation test."""

    min_passes = 1

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.n = 30 if tiny else 500  # draws per model, two models per kind
        self.n_grid = 100 if tiny else 1000
        self.kinds = []
        for index, algebra in enumerate((alg.herm_complex(3), alg.lorentz(4))):
            frame = alg.standard_frame(algebra)
            w2 = ma.parse_algorithm("w2", algebra, frame)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 1000 + index]))
            a = alg.random_cone_element(algebra, rng, 0.8, 1.6)
            shifts = 0.5 * algebra.peirce_d * np.arange(algebra.rank) + algebra.dim / algebra.rank
            fixture = KindFixture(
                algebra=algebra,
                w2=w2,
                interp=ma.parse_algorithm("interp:0.25", algebra, frame),
                px=dist.RieszParams(PowerExponent.of(shifts + 0.8), a, frame),
                py=dist.RieszParams(PowerExponent.of(shifts + 0.3), a, frame),
            )
            if algebra.kind == "lorentz":
                # criterion 6's Riesz-form instance, on the Lorentz cone
                fixture.oracles = fe.make_olkin_baker_instance(
                    -1.0 * alg.identity(algebra),
                    fe.delta_s_log((2.0, 1.0), frame),
                    fe.delta_s_log((1.5, 0.5), frame),
                    w2,
                    c1=0.1,
                    c2=-0.2,
                )
            self.kinds.append(fixture)

    def run_pass(self, index: int, run: Runner) -> None:
        ledger = run.ledger
        for kind_index, k in enumerate(self.kinds):
            name = k.algebra.name
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, index, kind_index]))
            draws = run(
                f"sample.{name}",
                lambda: (
                    coords_of(dist.sample_riesz(k.px, self.n, rng)),
                    coords_of(dist.sample_riesz(k.py, self.n, rng)),
                ),
            )
            if draws is None:
                continue
            x, y = draws
            lam_min = min(min_eigenvalue(k.algebra, x), min_eigenvalue(k.algebra, y))
            ledger.check(f"draws_in_cone.{name}", lam_min > 0.0, lam_min)
            for label, w in (("w2", k.w2), ("interp", k.interp)):
                resid = run(
                    f"quotient.{label}.{name}",
                    lambda w=w: self._quotient_check(w, x, y),
                    verdict=True,
                )
                if resid is not None:
                    ledger.check(f"bijection.{label}.{name}", resid <= BIJECTION_TOL, resid)
            if k.oracles:
                grid_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
                grid = fe.GridSpec(n_points=self.n_grid, seed=grid_seed)
                errs = run(f"olkin_baker.{name}", lambda: self._recovery(k, grid))
                if errs is not None:
                    for label, value in errs.items():
                        ledger.check(f"olkin_baker.{label}", value <= RECOVERY_TOL, value)

    @staticmethod
    def _quotient_check(w, x, y) -> float:
        u, v = lk.batch_quotient(w, x, y)
        head = slice(0, BIJECTION_POINTS)
        return bijection_residual(w, x[head], y[head], u[head], v[head])

    @staticmethod
    def _recovery(k: KindFixture, grid) -> dict:
        dec = fe.olkin_baker_decompose(*k.oracles, k.w2, grid)
        lam = -1.0 * alg.identity(k.algebra)
        param_err = max(
            float(np.max(np.abs(np.array(dec.e_fn.params.get("s", np.inf)) - (2.0, 1.0)))),
            float(np.max(np.abs(np.array(dec.f_fn.params.get("s", np.inf)) - (1.5, 0.5)))),
        )
        return {
            "lambda_error": alg.norm(dec.lam - lam),
            "param_error": param_err,
            "constant_defect": dec.constant_defect,
        }


# ---------------------------------------------------------------------------
# cli-three-kinds
# ---------------------------------------------------------------------------


class CliThreeKinds:
    """`conelab run` of all seven suites on one config per kind, through cli.main."""

    # the gate compares the reports of two passes, so a run needs at least two
    min_passes = 2

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        self.out = root / f"cli-{seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        samples = {k: max(4, v // 20) for k, v in CLI_SAMPLES.items()} if tiny else CLI_SAMPLES
        if tiny:
            samples["lukacs"] = 120  # the independence test needs at least 100 draws
        self.configs = []
        for algebra, algorithm in CLI_CONFIGS:
            path = self.out / f"{algebra}-{algorithm}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            cfg = {
                "algebra": algebra,
                "algorithm": algorithm,
                "seed": seed,
                "suites": list(cli.SUITE_NAMES),
                "samples": samples,
            }
            path.write_text(json.dumps(cfg, sort_keys=True))
            self.configs.append((f"{algebra}-{algorithm}", path))

    def run_pass(self, index: int, run: Runner) -> None:
        ledger = run.ledger
        for label, path in self.configs:
            out_dir = self.out / label / f"pass{index}"
            shutil.rmtree(out_dir, ignore_errors=True)

            def conelab_run(path=path, out_dir=out_dir):
                # the CLI prints a line per suite; stdout is kept for the result
                with contextlib.redirect_stdout(sys.stderr):
                    return cli.main(["run", str(path), "--out", str(out_dir)])

            status = run(f"cli.{label}", conelab_run, verdict=True)
            if status is None:
                continue
            reports = {
                suite: json.loads((out_dir / f"{suite}.json").read_text())
                for suite in cli.SUITE_NAMES
                if (out_dir / f"{suite}.json").is_file()
            }
            all_passed = len(reports) == len(cli.SUITE_NAMES) and all(
                r["passed"] for r in reports.values()
            )
            ledger.check(f"exit_code.{label}", status == (0 if all_passed else 1), status)
            for suite in cli.SUITE_NAMES:
                checks = reports.get(suite, {}).get("checks", {})
                exact = {k: c for k, c in checks.items() if (suite, k) != MC_SUITE_CHECK}
                ledger.check(f"suite.{label}.{suite}", bool(checks) and all(
                    c["passed"] for c in exact.values()
                ))
            mc = reports.get(MC_SUITE_CHECK[0], {}).get("checks", {}).get(MC_SUITE_CHECK[1])
            if index == 0 and mc is not None:
                # later passes repeat this verdict byte for byte; count it once
                ledger.verdict("crit7.matched_independent", f"cli.{label}", mc["passed"], mc["value"])
            if index > 0:
                first = self.out / label / "pass0"
                names = sorted(p.name for p in first.glob("*.json"))
                same = names == sorted(p.name for p in out_dir.glob("*.json")) and all(
                    (first / n).read_bytes() == (out_dir / n).read_bytes() for n in names
                )
                ledger.check(f"reports_identical.{label}", same)


WORKLOADS = {
    "mc-symreal": McSymReal,
    "generic-kinds": GenericKinds,
    "cli-three-kinds": CliThreeKinds,
}
