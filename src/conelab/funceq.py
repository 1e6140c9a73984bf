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
    apply_random_k,
    batch_eigenvalues,
    batch_spectrum,
    identity,
    norm,
    random_cone_points,
)
from .algorithms import MultiplicationAlgorithm
from .errors import FitError, InconsistencyError, ValidationError
from .peirce import PowerExponent, batch_generalized_power_log
from .triangular import batch_triangular_decompose

FORM_LOG_DET_POWER = "log_det_power"
FORM_DELTA_S_LOG = "delta_s_log"
FORM_CUSTOM = "custom"
FORM_ZERO = "zero"
#: the rungs alpha -> 0 of the limiting construction of the decomposition, largest first
ALPHA_LADDER = (0.5, 0.1, 0.02, 0.004)


@dataclass(frozen=True, eq=False)
class LogCauchyFn:
    """A candidate logarithmic Cauchy function on the cone; f(e) = 0 by construction.

    ``evaluator`` maps an (n, dim) coordinate array to the (n,) values.
    """

    algebra: AlgebraDescriptor
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    declared_form: str = FORM_CUSTOM
    params: dict = field(default_factory=dict)

    def __call__(self, x: Element) -> float:
        return float(self.evaluator(x.coords[None, :])[0])

    def form_dict(self) -> dict:
        out = {"form": self.declared_form}
        out.update(self.params)
        return out


def zero_fn(algebra: AlgebraDescriptor) -> LogCauchyFn:
    return LogCauchyFn(algebra, lambda coords: np.zeros(len(coords)), FORM_ZERO, {})


def log_det_power(kappa: float, algebra: AlgebraDescriptor) -> LogCauchyFn:
    """f(x) = kappa * log det x; a solution for every multiplication algorithm."""
    kappa = float(kappa)
    return LogCauchyFn(
        algebra,
        lambda coords: kappa * np.log(batch_eigenvalues(algebra, coords).prod(axis=1)),
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
        lambda coords: batch_generalized_power_log(frame, coords, s),
        FORM_DELTA_S_LOG,
        {"s": list(s.values)},
    )


def _max_abs(values) -> float:
    """max |values|, 0 for no values; a NaN anywhere gives NaN, so it fails every gate."""
    return float(np.max(np.abs(values), initial=0.0))


# ---------------------------------------------------------------------------
# residual of the logarithmic Cauchy equation
# ---------------------------------------------------------------------------


def draw_cone_pairs(algebra: AlgebraDescriptor, n: int, rng: np.random.Generator, low=0.2, high=5.0):
    """Two (n, dim) arrays (x, y) of cone points: the halves of one 2n-row draw."""
    draws = random_cone_points(algebra, 2 * n, rng, low, high)
    return draws[:n], draws[n:]


def wlog_residual(f: LogCauchyFn, w: MultiplicationAlgorithm, samples) -> float:
    """max |f(x) + f(w(e) y) - f(w(x) y)| over the rows of the sample pair (x, y)."""
    x, y = samples
    lhs = f.evaluator(x) + f.evaluator(w.unit_image().apply_batch(y))
    return _max_abs(lhs - f.evaluator(w.apply_batch(x, y)))


# ---------------------------------------------------------------------------
# additive Pexider fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PexiderFit:
    lam: Element
    alpha: float
    beta: float
    residual: float


def pexider_fit(algebra: AlgebraDescriptor, a_samples, b_samples, c_samples) -> PexiderFit:
    """Least-squares fit of a(x) = <lam, x> + alpha, b = <lam, .> + beta,
    c = <lam, .> + alpha + beta to tabulated samples of the three functions.

    Each sample set is a pair (coords, values): an (n, dim) array and its (n,) values.
    """
    dim = algebra.dim
    groups = (a_samples, b_samples, c_samples)
    coords = [np.reshape(x, (-1, dim)) for x, _ in groups]
    rhs = np.concatenate([np.ravel(values) for _, values in groups]).astype(float)
    # the alpha and beta columns: a carries alpha, b carries beta, c carries both
    flags = np.repeat([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [len(x) for x in coords], axis=0)
    design = np.hstack([algebra.inner_scale * np.concatenate(coords), flags])
    if design.shape[0] < dim + 2:
        raise FitError(f"need at least {dim + 2} samples, got {design.shape[0]}")
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < dim + 2:
        raise FitError("rank-deficient Pexider design matrix")
    lam = Element(algebra, solution[:dim])
    residual = _max_abs(design @ solution - rhs)
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
    Returns four callables, each mapping an (n, dim) coordinate array to its
    (n,) values; d is defined on the set of u with u and e - u in the cone.
    """
    if c3 is None and c4 is None:
        c3, c4 = c1, c2
    elif c3 is None:
        c3 = c1 + c2 - c4
    elif c4 is None:
        c4 = c1 + c2 - c3
    if abs(c1 + c2 - c3 - c4) > 1e-12:
        raise ValidationError("constants must satisfy c1 + c2 = c3 + c4")
    lam_row = lam.algebra.inner_scale * lam.coords
    e = identity(lam.algebra).coords
    unit = w.unit_image()

    def a(x: np.ndarray) -> np.ndarray:
        return x @ lam_row + e_fn.evaluator(x) + c1

    def b(x: np.ndarray) -> np.ndarray:
        return x @ lam_row + f_fn.evaluator(x) + c2

    def c(x: np.ndarray) -> np.ndarray:
        return x @ lam_row + e_fn.evaluator(x) + f_fn.evaluator(x) + c3

    def d(u: np.ndarray) -> np.ndarray:
        v = unit.apply_batch(u)
        return e_fn.evaluator(v) + f_fn.evaluator(e - v) + c4

    return a, b, c, d


def _richardson_limit(alphas: np.ndarray, values: np.ndarray):
    """Quadratic extrapolation of each row of h(alpha) to alpha -> 0 on the four rungs of the ladder.

    ``values`` holds one row per point, one column per rung.  Returns, per
    row, the order-2 extrapolant from the last three rungs and its
    disagreement with the one from the first three.
    """

    def quad_at_zero(xs, ys):
        return np.polyfit(xs, ys.T, 2)[-1]

    last = quad_at_zero(alphas[-3:], values[:, -3:])
    prev = quad_at_zero(alphas[:3], values[:, :3])
    return last, np.abs(last - prev)


def _recovered_log_cauchy(values: np.ndarray, coords: np.ndarray, frame, raw, tol: float):
    """Fit delta_s / log-det forms to tabulated values; fall back to ``raw`` as a custom form.

    log Delta_s = sum_k s_k log alpha_k is linear in the log pivots of the
    triangular decomposition, so s is their least-squares coefficient vector.
    Returns (the recovered function, max fit residual).
    """
    algebra = frame.algebra
    feats = np.log(batch_triangular_decompose(coords, frame).diagonal)
    s_hat = np.linalg.lstsq(feats, values, rcond=None)[0]
    resid = _max_abs(feats @ s_hat - values)
    if not resid <= tol:
        return LogCauchyFn(algebra, raw, FORM_CUSTOM, {"fit_residual": resid}), resid
    if np.max(s_hat) - np.min(s_hat) <= 1e-6:
        return log_det_power(np.mean(s_hat), algebra), resid
    return delta_s_log([float(v) for v in s_hat], frame), resid


def olkin_baker_decompose(
    a: Callable[[np.ndarray], np.ndarray],
    b: Callable[[np.ndarray], np.ndarray],
    c: Callable[[np.ndarray], np.ndarray],
    d: Callable[[np.ndarray], np.ndarray],
    w: MultiplicationAlgorithm,
    grid: GridSpec = GridSpec(),
) -> OBDecomposition:
    """Recover (Lambda, e, f, C_1..C_4) from oracle evaluations.

    Each oracle maps an (n, dim) coordinate array to its (n,) values and is
    called on whole stacked arrays, a fixed number of times whatever the grid
    size.  The steps mirror the constructive proof of the decomposition:
    scaling differences reduce to additive Pexider fits, which pin Lambda and
    the logarithmic drift constants; subtracting the linear part leaves the
    two Cauchy components up to additive constants fixed at e.
    """
    if not w.homogeneous:
        raise ValidationError("the decomposition requires a homogeneous algorithm")
    algebra = w.algebra
    rng = np.random.default_rng(grid.seed)
    e = identity(algebra).coords[None, :]
    unit = w.unit_image()
    frame = w.frame

    n = grid.n_points
    xs, ys = draw_cone_pairs(algebra, n, rng, grid.low, grid.high)
    vs = xs + ys
    us = w.solve_batch(vs, xs)

    # the equation itself must hold on the grid before anything is fitted
    a_x, b_y, c_v = a(xs), b(ys), c(vs)
    eq_residual = _max_abs(a_x + b_y - c_v - d(us))
    if not eq_residual <= grid.tol:
        raise InconsistencyError(
            f"oracle data violates the equation (max residual {eq_residual:.3e} "
            f"> tol {grid.tol:.1e})"
        )

    # scaling differences satisfy the additive Pexider equation
    fits = {}
    for s in (2.0, 3.0):
        pex = pexider_fit(
            algebra,
            (xs, a(s * xs) - a_x),
            (ys, b(s * ys) - b_y),
            (vs, c(s * vs) - c_v),
        )
        if not pex.residual <= 10.0 * grid.tol:
            raise InconsistencyError(
                f"scaling differences at s={s:g} are not additive-Pexider "
                f"(residual {pex.residual:.3e})"
            )
        fits[s] = pex

    lam2 = fits[2.0].lam
    lam3_scaled = fits[3.0].lam / 2.0
    lam_defect = norm(lam2 - lam3_scaled) / max(1.0, norm(lam2))
    if not lam_defect <= 100.0 * grid.tol:
        raise InconsistencyError(
            f"scale parameters from s=2 and s=3 disagree (relative {lam_defect:.3e})"
        )
    lam = 0.5 * (lam2 + lam3_scaled)
    lam_row = algebra.inner_scale * lam.coords

    k1_pair = (fits[2.0].alpha / np.log(2.0), fits[3.0].alpha / np.log(3.0))
    k2_pair = (fits[2.0].beta / np.log(2.0), fits[3.0].beta / np.log(3.0))
    k1 = float(np.mean(k1_pair))
    k2 = float(np.mean(k2_pair))

    # strip the linear part; what remains is Cauchy up to a constant fixed at e
    c1 = float(a(e)[0] - e[0] @ lam_row)
    c2 = float(b(e)[0] - e[0] @ lam_row)
    c3 = float(c(e)[0] - e[0] @ lam_row)

    def e_raw(x: np.ndarray) -> np.ndarray:
        return a(x) - x @ lam_row - c1

    def f_raw(x: np.ndarray) -> np.ndarray:
        return b(x) - x @ lam_row - c2

    # constants for d, via the diagonal substitution (row 0) and via points of the domain
    m = min(n, 200)
    d_points = np.concatenate([0.5 * e, us[:m]])
    d_images = unit.apply_batch(d_points)
    e_d, f_d, d_vals = e_raw(d_images), f_raw(e - d_images), d(d_points)
    c4_all = d_vals - e_d - f_d
    c4 = float(np.mean(c4_all[1:]))
    c4_spread = _max_abs(c4_all[1:] - c4)

    # limiting construction along the ladder, kept as a diagnostic of d
    ladder = np.array(ALPHA_LADDER)
    heads, tails = us[:8], vs[:4]
    rungs = (heads[:, None, :] * ladder[None, :, None]).reshape(-1, algebra.dim)
    h_vals = d(rungs).reshape(len(heads), len(ladder)) - k1 * np.log(ladder)
    g_lim, unc = _richardson_limit(ladder, h_vals)
    g_u = g_lim - (k1 + k2) * np.log(2.0) - d_vals[0]
    # rows w(v_j) u_i, u_i-major, then the v_j themselves
    products = w.apply_batch(np.tile(tails, (len(heads), 1)), np.repeat(heads, len(tails), axis=0))
    probes = np.concatenate([products, tails])
    a_bar = a(probes) - probes @ lam_row
    lhs = a_bar[: -len(tails)].reshape(len(heads), len(tails))
    g_residual = _max_abs(lhs - (a_bar[-len(tails):] + g_u[:, None]))

    # classify the recovered Cauchy parts and validate c on held-out structure
    e_values = a_x - xs @ lam_row - c1
    f_values = b_y - ys @ lam_row - c2
    form_tol = max(100.0 * grid.tol, 1e-6)
    e_fn, e_fit_resid = _recovered_log_cauchy(e_values, xs, frame, e_raw, form_tol)
    f_fn, f_fit_resid = _recovered_log_cauchy(f_values, ys, frame, f_raw, form_tol)

    held = vs[:m]
    e_v, f_v = e_raw(held), f_raw(held)
    c_residual = _max_abs(c(held) - held @ lam_row - e_v - f_v - c3)

    # reconstruction residual of the full equation with the recovered parts
    lhs = (xs[:m] @ lam_row + e_values[:m] + c1) + (ys[:m] @ lam_row + f_values[:m] + c2)
    rhs = (held @ lam_row + e_v + f_v + c3) + (e_d[1:] + f_d[1:] + c4)
    recon = _max_abs(lhs - rhs)
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
        "c4_diagonal": float(c4_all[0]),
        "c4_spread": c4_spread,
        "limit_uncertainty": _max_abs(unc),
        "limit_equation_residual": g_residual,
        "c_residual": c_residual,
        "e_fit_residual": e_fit_resid,
        "f_fit_residual": f_fit_resid,
        "reconstruction_residual": recon,
        "n_points": grid.n_points,
    }
    return OBDecomposition(
        lam=lam,
        k1=k1,
        k2=k2,
        e_fn=e_fn,
        f_fn=f_fn,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
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
    max |f(x) - f(y)| over constructed pairs with det x = det y; each draw is one batch."""
    x = random_cone_points(algebra, n, rng, 0.2, 5.0)
    f_x = f.evaluator(x)
    k_residual = _max_abs(f.evaluator(apply_random_k(algebra, x, rng)) - f_x)
    equal_det_residual = 0.0
    if algebra.rank >= 2:
        lam, rebuild = batch_spectrum(algebra, x)
        scale = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
        lam[:, 0] *= scale
        lam[:, 1] /= scale
        equal_det_residual = _max_abs(f.evaluator(rebuild(lam)) - f_x)
    return KInvarianceReport(k_residual, equal_det_residual, n)
