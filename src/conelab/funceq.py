"""Verification and constructive solution of cone functional equations.

Covers the multiplicative (here: logarithmic) Cauchy equation
``f(x) + f(w(e) y) = f(w(x) y)`` attached to a multiplication algorithm w,
the additive Pexider equation on the cone, and the Olkin-Baker equation
``a(x) + b(y) = c(x + y) + d(g(x + y) x)``, whose solution is reconstructed
numerically by the same scaling / limiting steps that prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    JordanFrame,
    determinant,
    identity,
    inner,
    norm,
    random_automorphism_k,
    random_cone_element,
    spectral_decompose,
    standard_frame,
    zero,
)
from .algorithms import MultiplicationAlgorithm, multiply
from .errors import FitError, InconsistencyError, ValidationError
from .peirce import PowerExponent, generalized_power_log, principal_minors

FORM_LOG_DET_POWER = "log_det_power"
FORM_DELTA_S_LOG = "delta_s_log"
FORM_CUSTOM = "custom"
FORM_ZERO = "zero"


@dataclass(frozen=True, eq=False)
class LogCauchyFn:
    """A candidate logarithmic Cauchy function on the cone; f(e) = 0 by construction."""

    algebra: AlgebraDescriptor
    evaluator: Callable[[Element], float] = field(repr=False)
    declared_form: str = FORM_CUSTOM
    params: dict = field(default_factory=dict)

    def __call__(self, x: Element) -> float:
        return float(self.evaluator(x))

    def form_dict(self) -> dict:
        out = {"form": self.declared_form}
        out.update(self.params)
        return out


def zero_fn(algebra: AlgebraDescriptor) -> LogCauchyFn:
    return LogCauchyFn(algebra, lambda x: 0.0, FORM_ZERO, {})


def log_det_power(kappa: float, algebra: AlgebraDescriptor) -> LogCauchyFn:
    """f(x) = kappa * log det x; a solution for every multiplication algorithm."""
    kappa = float(kappa)
    return LogCauchyFn(
        algebra,
        lambda x: kappa * float(np.log(determinant(x))),
        FORM_LOG_DET_POWER,
        {"kappa": kappa},
    )


def delta_s_log(s, frame) -> LogCauchyFn:
    """f(x) = log Delta_s(x); a solution for the triangular algorithm of the frame."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    s = PowerExponent.of(s)
    return LogCauchyFn(
        frame.algebra,
        lambda x: generalized_power_log(x, s, frame),
        FORM_DELTA_S_LOG,
        {"s": list(s.values)},
    )


def custom_log_cauchy(fn: Callable[[Element], float], algebra: AlgebraDescriptor) -> LogCauchyFn:
    """Wrap an arbitrary evaluator, shifted so that f(e) = 0."""
    offset = float(fn(identity(algebra)))
    return LogCauchyFn(algebra, lambda x: float(fn(x)) - offset, FORM_CUSTOM, {})


# ---------------------------------------------------------------------------
# residual of the logarithmic Cauchy equation
# ---------------------------------------------------------------------------


def draw_cone_pairs(algebra: AlgebraDescriptor, n: int, rng: np.random.Generator, low=0.2, high=5.0):
    return [
        (random_cone_element(algebra, rng, low, high), random_cone_element(algebra, rng, low, high))
        for _ in range(n)
    ]


def wlog_residual(f: LogCauchyFn, w: MultiplicationAlgorithm, samples) -> float:
    """max |f(x) + f(w(e) y) - f(w(x) y)| over the sample pairs."""
    unit = w.unit_image()
    worst = 0.0
    for x, y in samples:
        lhs = f(x) + f(unit.apply(y))
        rhs = f(multiply(w, x, y))
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# additive Pexider fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PexiderFit:
    lam: Element
    alpha: float
    beta: float
    residual: float


def pexider_fit(a_samples, b_samples, c_samples) -> PexiderFit:
    """Least-squares fit of a(x) = <lam, x> + alpha, b = <lam, .> + beta,
    c = <lam, .> + alpha + beta to tabulated samples of the three functions."""
    all_samples = list(a_samples) + list(b_samples) + list(c_samples)
    if not all_samples:
        raise FitError("no samples supplied")
    algebra = all_samples[0][0].algebra
    dim = algebra.dim
    scale = algebra.inner_scale
    rows = []
    rhs = []
    for group, samples in enumerate((a_samples, b_samples, c_samples)):
        for x, value in samples:
            row = np.zeros(dim + 2)
            row[:dim] = scale * x.coords
            if group in (0, 2):
                row[dim] = 1.0
            if group in (1, 2):
                row[dim + 1] = 1.0
            rows.append(row)
            rhs.append(float(value))
    design = np.array(rows)
    rhs = np.array(rhs)
    if design.shape[0] < dim + 2:
        raise FitError(f"need at least {dim + 2} samples, got {design.shape[0]}")
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < dim + 2:
        raise FitError("rank-deficient Pexider design matrix")
    residual = float(np.max(np.abs(design @ solution - rhs))) if len(rhs) else 0.0
    lam = Element(algebra, solution[:dim])
    return PexiderFit(lam, float(solution[dim]), float(solution[dim + 1]), residual)


# ---------------------------------------------------------------------------
# the Olkin-Baker equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Evaluation plan for the constructive decomposition."""

    n_points: int = 2000
    low: float = 0.1
    high: float = 10.0
    alpha_ladder: tuple = (0.5, 0.1, 0.02, 0.004)
    seed: int = 0
    tol: float = 1e-6


@dataclass(frozen=True, eq=False)
class OBDecomposition:
    """Solution parameters of the Olkin-Baker equation plus fit diagnostics."""

    lam: Element
    k1: float
    k2: float
    e_fn: LogCauchyFn
    f_fn: LogCauchyFn
    c1: float
    c2: float
    c3: float
    c4: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def constant_defect(self) -> float:
        return abs(self.c1 + self.c2 - self.c3 - self.c4)

    def as_dict(self) -> dict:
        return {
            "lambda": [float(v) for v in self.lam.coords],
            "algebra": self.lam.algebra.name,
            "k1": self.k1,
            "k2": self.k2,
            "constants": {"c1": self.c1, "c2": self.c2, "c3": self.c3, "c4": self.c4},
            "constant_defect": self.constant_defect,
            "e_fn": self.e_fn.form_dict(),
            "f_fn": self.f_fn.form_dict(),
            "diagnostics": self.diagnostics,
        }


def make_olkin_baker_instance(
    lam: Element,
    e_fn: LogCauchyFn,
    f_fn: LogCauchyFn,
    w: MultiplicationAlgorithm,
    c1: float = 0.0,
    c2: float = 0.0,
    c3: Optional[float] = None,
    c4: Optional[float] = None,
):
    """Forward-construct oracles (a, b, c, d) from solution parameters.

    The constants must satisfy c1 + c2 = c3 + c4; by default c3 = c1, c4 = c2.
    Returns four callables; d is defined on the set of u with u and e - u in
    the cone.
    """
    if c3 is None and c4 is None:
        c3, c4 = c1, c2
    elif c3 is None:
        c3 = c1 + c2 - c4
    elif c4 is None:
        c4 = c1 + c2 - c3
    if abs(c1 + c2 - c3 - c4) > 1e-12:
        raise ValidationError("constants must satisfy c1 + c2 = c3 + c4")
    algebra = lam.algebra
    e = identity(algebra)
    unit = w.unit_image()

    def a(x: Element) -> float:
        return inner(lam, x) + e_fn(x) + c1

    def b(x: Element) -> float:
        return inner(lam, x) + f_fn(x) + c2

    def c(x: Element) -> float:
        return inner(lam, x) + e_fn(x) + f_fn(x) + c3

    def d(u: Element) -> float:
        v = unit.apply(u)
        return e_fn(v) + f_fn(e - v) + c4

    return a, b, c, d


def _richardson_limit(alphas: np.ndarray, values: np.ndarray):
    """Quadratic extrapolation of h(alpha) to alpha -> 0 on the trailing nodes.

    Returns the order-2 extrapolant from the last three nodes and its
    disagreement with the one from the previous window.
    """
    if len(alphas) < 3:
        raise ValidationError("the ladder needs at least three rungs")

    def quad_at_zero(xs, ys):
        coeffs = np.polyfit(xs, ys, 2)
        return float(np.polyval(coeffs, 0.0))

    last = quad_at_zero(alphas[-3:], values[-3:])
    prev = quad_at_zero(alphas[-4:-1], values[-4:-1]) if len(alphas) >= 4 else last
    return last, abs(last - prev)


def _classify_log_cauchy(values: np.ndarray, points, frame, algebra):
    """Fit delta_s / log-det forms to tabulated values; fall back to custom.

    Returns (declared_form, params, fitted_values, max_fit_residual, s_hat).
    """
    r = algebra.rank
    minors = principal_minors(frame, np.array([x.coords for x in points]))
    feats = np.diff(np.log(minors), axis=1, prepend=0.0)
    s_hat, _, rank, _ = np.linalg.lstsq(feats, values, rcond=None)
    fitted = feats @ s_hat
    resid = float(np.max(np.abs(fitted - values))) if len(values) else 0.0
    spread = float(np.max(s_hat) - np.min(s_hat)) if r > 1 else 0.0
    if spread <= 1e-6:
        kappa = float(np.mean(s_hat))
        return FORM_LOG_DET_POWER, {"kappa": kappa}, fitted, resid, s_hat
    return FORM_DELTA_S_LOG, {"s": [float(v) for v in s_hat]}, fitted, resid, s_hat


def olkin_baker_decompose(
    a: Callable[[Element], float],
    b: Callable[[Element], float],
    c: Callable[[Element], float],
    d: Callable[[Element], float],
    w: MultiplicationAlgorithm,
    grid: GridSpec = GridSpec(),
) -> OBDecomposition:
    """Recover (Lambda, e, f, C_1..C_4) from oracle evaluations.

    The steps mirror the constructive proof of the decomposition: scaling
    differences reduce to additive Pexider fits, which pin Lambda and the
    logarithmic drift constants; subtracting the linear part leaves the two
    Cauchy components up to additive constants fixed at e.
    """
    if not w.homogeneous:
        raise ValidationError("the decomposition requires a homogeneous algorithm")
    algebra = w.algebra
    rng = np.random.default_rng(grid.seed)
    e = identity(algebra)
    unit = w.unit_image()
    frame = w.frame if w.frame is not None else standard_frame(algebra)

    xs = [random_cone_element(algebra, rng, grid.low, grid.high) for _ in range(grid.n_points)]
    ys = [random_cone_element(algebra, rng, grid.low, grid.high) for _ in range(grid.n_points)]
    vs = [x + y for x, y in zip(xs, ys)]
    u_rows = w.solve_batch(
        np.array([v.coords for v in vs]), np.array([x.coords for x in xs])
    )
    us = [Element(algebra, row) for row in u_rows]

    # the equation itself must hold on the grid before anything is fitted
    eq_residual = 0.0
    for x, y, v, u in zip(xs, ys, vs, us):
        eq_residual = max(eq_residual, abs(a(x) + b(y) - c(v) - d(u)))
    if eq_residual > grid.tol:
        raise InconsistencyError(
            f"oracle data violates the equation (max residual {eq_residual:.3e} "
            f"> tol {grid.tol:.1e})"
        )

    # scaling differences satisfy the additive Pexider equation
    fits = {}
    for s in (2.0, 3.0):
        a_samples = [(x, a(s * x) - a(x)) for x in xs]
        b_samples = [(y, b(s * y) - b(y)) for y in ys]
        c_samples = [(v, c(s * v) - c(v)) for v in vs]
        pex = pexider_fit(a_samples, b_samples, c_samples)
        if pex.residual > 10.0 * grid.tol:
            raise InconsistencyError(
                f"scaling differences at s={s:g} are not additive-Pexider "
                f"(residual {pex.residual:.3e})"
            )
        fits[s] = pex

    lam2 = fits[2.0].lam
    lam3_scaled = fits[3.0].lam / 2.0
    lam_defect = norm(lam2 - lam3_scaled) / max(1.0, norm(lam2))
    if lam_defect > 100.0 * grid.tol:
        raise InconsistencyError(
            f"scale parameters from s=2 and s=3 disagree (relative {lam_defect:.3e})"
        )
    lam = 0.5 * (lam2 + lam3_scaled)

    k1_pair = (fits[2.0].alpha / np.log(2.0), fits[3.0].alpha / np.log(3.0))
    k2_pair = (fits[2.0].beta / np.log(2.0), fits[3.0].beta / np.log(3.0))
    k1 = float(np.mean(k1_pair))
    k2 = float(np.mean(k2_pair))

    # strip the linear part; what remains is Cauchy up to a constant fixed at e
    def a_bar(x: Element) -> float:
        return a(x) - inner(lam, x)

    def b_bar(x: Element) -> float:
        return b(x) - inner(lam, x)

    c1 = a_bar(e)
    c2 = b_bar(e)
    c3 = c(e) - inner(lam, e)

    e_raw = lambda x: a_bar(x) - c1
    f_raw = lambda x: b_bar(x) - c2

    # constants for d, via the diagonal substitution and via points of the domain
    half_e = 0.5 * e
    c4_diag = d(half_e) - e_raw(unit.apply(half_e)) - f_raw(e - unit.apply(half_e))
    c4_samples = []
    for u in us[: min(len(us), 200)]:
        v = unit.apply(u)
        c4_samples.append(d(u) - e_raw(v) - f_raw(e - v))
    c4 = float(np.mean(c4_samples)) if c4_samples else c4_diag
    c4_spread = float(np.max(np.abs(np.array(c4_samples) - c4))) if c4_samples else 0.0

    # limiting construction along the ladder, kept as a diagnostic of d
    ladder = np.asarray(grid.alpha_ladder, dtype=float)
    limit_uncertainty = 0.0
    g_residual = 0.0
    d_half = d(half_e)
    for u in us[: min(len(us), 8)]:
        h_vals = np.array([d(alpha * u) - k1 * np.log(alpha) for alpha in ladder])
        g_lim, unc = _richardson_limit(ladder, h_vals)
        limit_uncertainty = max(limit_uncertainty, unc)
        g_u = g_lim - (k1 + k2) * np.log(2.0) - d_half
        for v in vs[:4]:
            lhs = a_bar(multiply(w, v, u))
            rhs = a_bar(v) + g_u
            g_residual = max(g_residual, abs(lhs - rhs))

    # classify the recovered Cauchy parts and validate c on held-out structure
    e_values = np.array([e_raw(x) for x in xs])
    f_values = np.array([f_raw(y) for y in ys])
    e_form, e_params, _, e_fit_resid, _ = _classify_log_cauchy(e_values, xs, frame, algebra)
    f_form, f_params, _, f_fit_resid, _ = _classify_log_cauchy(f_values, ys, frame, algebra)

    form_tol = max(100.0 * grid.tol, 1e-6)
    if e_form == FORM_LOG_DET_POWER and e_fit_resid <= form_tol:
        e_fn = log_det_power(e_params["kappa"], algebra)
    elif e_form == FORM_DELTA_S_LOG and e_fit_resid <= form_tol:
        e_fn = delta_s_log(e_params["s"], frame)
    else:
        e_fn = LogCauchyFn(algebra, e_raw, FORM_CUSTOM, {"fit_residual": e_fit_resid})
    if f_form == FORM_LOG_DET_POWER and f_fit_resid <= form_tol:
        f_fn = log_det_power(f_params["kappa"], algebra)
    elif f_form == FORM_DELTA_S_LOG and f_fit_resid <= form_tol:
        f_fn = delta_s_log(f_params["s"], frame)
    else:
        f_fn = LogCauchyFn(algebra, f_raw, FORM_CUSTOM, {"fit_residual": f_fit_resid})

    c_residual = 0.0
    for v in vs[: min(len(vs), 200)]:
        c_residual = max(c_residual, abs(c(v) - inner(lam, v) - e_raw(v) - f_raw(v) - c3))

    # reconstruction residual of the full equation with the recovered parts
    recon = 0.0
    for x, y, v, u in zip(xs[:200], ys[:200], vs[:200], us[:200]):
        uv = unit.apply(u)
        lhs = (inner(lam, x) + e_raw(x) + c1) + (inner(lam, y) + f_raw(y) + c2)
        rhs = (inner(lam, v) + e_raw(v) + f_raw(v) + c3) + (e_raw(uv) + f_raw(e - uv) + c4)
        recon = max(recon, abs(lhs - rhs))
    constant_defect = abs(c1 + c2 - c3 - c4)
    for label, value in (
        ("c", c_residual),
        ("reconstruction", recon),
        ("constant", constant_defect),
    ):
        if not value <= 10.0 * grid.tol:
            raise InconsistencyError(
                f"recovered parts miss the oracles ({label} residual {value:.3e} "
                f"> {10.0 * grid.tol:.1e})"
            )

    diagnostics = {
        "equation_residual": eq_residual,
        "pexider_residual_s2": fits[2.0].residual,
        "pexider_residual_s3": fits[3.0].residual,
        "lambda_consistency": lam_defect,
        "k1_pair": [float(k1_pair[0]), float(k1_pair[1])],
        "k2_pair": [float(k2_pair[0]), float(k2_pair[1])],
        "c4_diagonal": float(c4_diag),
        "c4_spread": c4_spread,
        "limit_uncertainty": float(limit_uncertainty),
        "limit_equation_residual": float(g_residual),
        "c_residual": float(c_residual),
        "e_fit_residual": float(e_fit_resid),
        "f_fit_residual": float(f_fit_resid),
        "reconstruction_residual": float(recon),
        "n_points": grid.n_points,
    }
    return OBDecomposition(
        lam=lam,
        k1=k1,
        k2=k2,
        e_fn=e_fn,
        f_fn=f_fn,
        c1=float(c1),
        c2=float(c2),
        c3=float(c3),
        c4=float(c4),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# K-invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KInvarianceReport:
    """Residuals of rotation invariance and of determinant functionality."""

    k_residual: float
    equal_det_residual: float
    n: int

    def as_dict(self) -> dict:
        return {
            "k_residual": self.k_residual,
            "equal_det_residual": self.equal_det_residual,
            "n": self.n,
        }


def k_invariance_check(
    f: LogCauchyFn, algebra: AlgebraDescriptor, rng: np.random.Generator, n: int
) -> KInvarianceReport:
    """Measure (i) max |f(kx) - f(x)| over random rotations and (ii)
    max |f(x) - f(y)| over constructed pairs with det x = det y."""
    k_residual = 0.0
    equal_det_residual = 0.0
    for _ in range(n):
        x = random_cone_element(algebra, rng, 0.2, 5.0)
        k = random_automorphism_k(algebra, rng)
        k_residual = max(k_residual, abs(f(k.apply(x)) - f(x)))
        if algebra.rank >= 2:
            sd = spectral_decompose(x)
            scale = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            lam = sd.eigenvalues.copy()
            lam[0] *= scale
            lam[1] /= scale
            y = zero(algebra)
            for lam_i, ci in zip(lam, sd.frame):
                y = y + float(lam_i) * ci
            equal_det_residual = max(equal_det_residual, abs(f(x) - f(y)))
    return KInvarianceReport(k_residual, equal_det_residual, n)
