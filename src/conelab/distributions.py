"""Riesz and Wishart distributions on the cone, their densities and samplers.

The Riesz density with exponent vector s and scale a in the cone is

    f(x) = Delta_{s - dim/r}(x) * exp(-<a, x>) / (Gamma_V(s) * Delta_s(a^{-1}))

with respect to the trace-form Lebesgue measure; Wishart is the constant-s
case, where the normalizer reduces to (det a)^p / Gamma_V(p).  The sampler
uses the triangular-group construction, one batched path for every kind and
frame: an (n, r) array of gamma-distributed diagonal entries, an
(n, dim - r) array of Gaussian Frobenius coordinates in the Peirce basis of
the frame, the Frobenius chain on the whole batch, then the group element
sending e to a^{-1} adjusts the scale.  Sample batches and the tabulated
oracles of ``conelab decompose`` share one CSV writer and reader.

The module needs numpy alone: the cone Gamma function sums ``math.lgamma``,
and the quadrature check builds its generalized Gauss-Laguerre rules from
the Jacobi matrix of the Laguerre recurrence (:func:`gauss_laguerre`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (
    SYM_REAL,
    AlgebraDescriptor,
    Element,
    JordanFrame,
    Points,
    batch_eigenvalues,
    determinant,
    eigenvalues,
    identity,
    inverse,
    mats_to_coords,
    parse_algebra,
    random_element,
    require_in_cone,
    standard_frame,
)
from .errors import DomainError, ValidationError
from .funceq import LogCauchyFn, delta_s_log, log_det_power
from .peirce import PowerExponent, exponent_vector, generalized_power_log
from .triangular import batch_frobenius, batch_triangular_decompose

# ---------------------------------------------------------------------------
# the cone Gamma function
# ---------------------------------------------------------------------------


def gamma_shapes(s, algebra: AlgebraDescriptor) -> np.ndarray:
    """The shifted parameters s_j - (j-1) d/2; all must be positive."""
    svec = exponent_vector(s, algebra.rank)
    shifts = 0.5 * algebra.peirce_d * np.arange(algebra.rank)
    return svec - shifts


def log_gamma_cone(s, algebra: AlgebraDescriptor) -> float:
    """log of the cone Gamma function (2 pi)^((dim-r)/2) prod_j Gamma(s_j - (j-1)d/2)."""
    shapes = gamma_shapes(s, algebra)
    if np.any(shapes <= 0):
        raise DomainError(
            f"Gamma function needs s_j > (j-1)d/2; offending shapes {shapes}"
        )
    half_log_two_pi = 0.5 * (algebra.dim - algebra.rank) * np.log(2.0 * np.pi)
    return float(half_log_two_pi + np.sum([math.lgamma(shape) for shape in shapes]))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RieszParams:
    """Exponent vector s, scale a in the cone, and the reference frame."""

    s: PowerExponent
    a: Element
    frame: JordanFrame

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", PowerExponent.of(self.s))
        frame = self.frame
        if not isinstance(frame, JordanFrame):
            frame = JordanFrame(frame)
            object.__setattr__(self, "frame", frame)
        algebra = frame.algebra
        if self.a.algebra != algebra:
            raise ValidationError("scale parameter and frame from different algebras")
        if np.any(gamma_shapes(self.s, algebra) <= 0):
            raise DomainError("Riesz exponents must satisfy s_j > (j-1)d/2")
        require_in_cone(self.a, "scale parameter")

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.frame.algebra


@dataclass(frozen=True, eq=False)
class WishartParams:
    """Degree p > dim/r - 1 and scale a in the cone."""

    p: float
    a: Element

    def __post_init__(self) -> None:
        algebra = self.a.algebra
        if self.p <= algebra.dim / algebra.rank - 1:
            raise DomainError(
                f"Wishart degree must exceed dim/r - 1 = {algebra.dim / algebra.rank - 1}"
            )
        require_in_cone(self.a, "scale parameter")

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.a.algebra

    def as_riesz(self, frame=None) -> RieszParams:
        algebra = self.algebra
        frame = frame if frame is not None else standard_frame(algebra)
        return RieszParams(PowerExponent.constant(self.p, algebra.rank), self.a, frame)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def riesz_log_normalizer(params: RieszParams) -> float:
    """log of 1 / (Gamma_V(s) Delta_s(a^{-1})); the constant making mass one."""
    algebra = params.algebra
    a_inv = inverse(params.a)
    return -log_gamma_cone(params.s, algebra) - generalized_power_log(
        a_inv, params.s, params.frame
    )


def _log_density(algebra: AlgebraDescriptor, x, log_norm: float, log_mult, lam: Element):
    """log_norm + log_mult(rows, eigenvalues) + <lam, x> at the rows of x in the cone, -inf elsewhere;
    a float for one Element x, an (n,) array for a :class:`Points` batch x."""
    if x.algebra != algebra:
        raise ValidationError("point and parameters from different algebras")
    coords = x.coords.reshape(-1, algebra.dim)
    eig = batch_eigenvalues(algebra, coords)
    inside = eig.min(axis=1) > 0
    rows = coords[inside]
    out = np.full(len(coords), -np.inf)
    out[inside] = log_norm + log_mult(rows, eig[inside]) + rows @ (algebra.inner_scale * lam.coords)
    return float(out[0]) if isinstance(x, Element) else out


def riesz_logpdf(params: RieszParams, x):
    """Log density of the Riesz distribution at an Element or a batch; -inf outside the cone."""
    return riesz_model(params, None).logpdf(x)


def wishart_logpdf(params: WishartParams, x):
    """Log density of the Wishart distribution in closed form, at an Element or a batch."""
    algebra = params.algebra
    p = params.p
    log_norm = p * np.log(determinant(params.a)) - log_gamma_cone(
        PowerExponent.constant(p, algebra.rank), algebra
    )
    power = p - algebra.dim / algebra.rank
    return _log_density(
        algebra, x, log_norm, lambda _, eig: power * np.sum(np.log(eig), axis=1), -1.0 * params.a
    )


def in_domain_D(u: Element) -> bool:
    """True when both u and e - u lie in the open cone (all eigenvalues in (0, 1))."""
    lam = eigenvalues(u)
    return bool(lam.min() > 0.0 and lam.max() < 1.0)


def random_in_domain_D(
    algebra: AlgebraDescriptor, rng: np.random.Generator, low: float = 0.05, high: float = 0.95
) -> Element:
    return random_element(algebra, rng, (low, high))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _scale_matrix(params: RieszParams):
    """Matrix of the triangular element sending e to a^{-1} (None when a = e); its columns are t b_k."""
    algebra = params.algebra
    if np.max(np.abs(params.a.coords - identity(algebra).coords)) < 1e-14:
        return None
    a_inv = inverse(params.a).coords[None, :]  # a one-row batch applies to every basis row
    return batch_triangular_decompose(a_inv, params.frame).apply(np.eye(algebra.dim)).T


def sample_riesz(params: RieszParams, n: int, rng: np.random.Generator) -> Points:
    """A batch of n independent draws, deterministic under the generator state.

    The variates come from two calls on ``rng``.  ``rng.gamma`` fills an
    (n, r) array of diagonal entries alpha; then ``rng.standard_normal``
    fills an (n, dim - r) array of r - 1 blocks, block j of width
    k_j = (r - 1 - j) d.  Block j, scaled by alpha_j^(-1/2), holds the
    coordinates of z_j in the orthonormal rows of the subspaces E_jk, k > j
    (:func:`~conelab.triangular.upper_rows`, in Peirce basis order), and is
    passed to the Frobenius step as it is.  The chain
    tau_{c_1}(z_1) ... tau_{c_(r-1)}(z_(r-1)) sum_k alpha_k c_k and then
    the scale map act on the whole batch.
    """
    algebra = params.algebra
    r = algebra.rank
    frame = params.frame
    alphas = rng.gamma(shape=gamma_shapes(params.s, algebra), size=(n, r))
    normals = rng.standard_normal((n, algebra.dim - r))
    widths = [(r - 1 - j) * algebra.peirce_d for j in range(r - 1)]
    blocks = np.split(normals, np.cumsum(widths)[:-1], axis=1)
    y = alphas @ frame.members
    for j in range(r - 2, -1, -1):
        y = batch_frobenius(frame, j, blocks[j] / np.sqrt(alphas[:, j, None]), y)
    scale = _scale_matrix(params)
    if scale is not None:
        y = y @ scale.T
    return Points(algebra, y)


def wishart_mean_sigmas(coords: np.ndarray, p: float, a: Element) -> float:
    """Largest distance, in standard errors, of the sample mean from the Wishart mean p a^{-1}.

    ``coords`` holds one draw per row; standard errors are floored at 1e-30.
    """
    mean = coords.mean(axis=0)
    se = coords.std(axis=0, ddof=1) / math.sqrt(len(coords))
    target = p * inverse(a).coords
    return float(np.max(np.abs(mean - target) / np.maximum(se, 1e-30)))


# ---------------------------------------------------------------------------
# factorized density models for the independence harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Density of the form exp(log_normalizer) * exp(mult_fn(x)) * exp(<lam, x>) on the cone.

    ``mult_fn`` is the logarithm of the multiplicative part.  ``lam`` is not
    required to have -lam in the cone; integrability is the caller's burden
    and is only checked numerically where a check is requested.
    """

    log_normalizer: float
    lam: Element
    mult_fn: LogCauchyFn
    algorithm: object
    riesz_params: Optional[RieszParams] = None

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.lam.algebra

    def logpdf(self, x):
        """Log density at an Element (a float) or a batch (an (n,) array); -inf outside the cone."""
        log_mult = self.mult_fn.evaluator
        return _log_density(self.algebra, x, self.log_normalizer, lambda rows, _: log_mult(rows), self.lam)

    def sample(self, n: int, rng: np.random.Generator) -> Points:
        if self.riesz_params is None:
            raise ValidationError("this density model carries no sampler parameters")
        return sample_riesz(self.riesz_params, n, rng)


def wishart_model(params: WishartParams, algorithm, frame=None) -> DensityModel:
    """Wishart density packaged as a factorized model for the quadratic algorithm."""
    algebra = params.algebra
    riesz = params.as_riesz(frame)
    mult = log_det_power(params.p - algebra.dim / algebra.rank, algebra)
    return DensityModel(
        log_normalizer=riesz_log_normalizer(riesz),
        lam=-1.0 * params.a,
        mult_fn=mult,
        algorithm=algorithm,
        riesz_params=riesz,
    )


def riesz_model(params: RieszParams, algorithm) -> DensityModel:
    """Riesz density packaged as a factorized model for the triangular algorithm."""
    algebra = params.algebra
    shifted = params.s.as_array() - algebra.dim / algebra.rank
    mult = delta_s_log(shifted, params.frame)
    return DensityModel(
        log_normalizer=riesz_log_normalizer(params),
        lam=-1.0 * params.a,
        mult_fn=mult,
        algorithm=algorithm,
        riesz_params=params,
    )


# ---------------------------------------------------------------------------
# quadrature check of the normalization (rank 2, sym_real)
# ---------------------------------------------------------------------------


def _laguerre_pair(n: int, alpha: float, x: np.ndarray) -> tuple:
    """(L_n^alpha(x), L_{n-1}^alpha(x)) for n >= 1.

    The recurrence runs on the differences of p_k = L_k^alpha / binom(k + alpha, k),
    the form of ``scipy.special.eval_genlaguerre``.
    """
    d = -x / (alpha + 1.0)
    below, p = np.ones_like(x), d + 1.0
    scale_below, scale = 1.0, alpha + 1.0
    for k in range(1, n):
        d = -x / (k + alpha + 1.0) * p + (k / (k + alpha + 1.0)) * d
        below, p = p, d + p
        scale_below, scale = scale, scale * (k + 1.0 + alpha) / (k + 1.0)
    return scale * p, scale_below * below


def gauss_laguerre(n: int, alpha: float) -> tuple:
    """Nodes and weights of the n-point Gauss rule for the weight x^alpha e^{-x} on (0, inf).

    The nodes are the eigenvalues of the Jacobi matrix of the recurrence,
    refined by one Newton step on L_n^alpha; the weights are
    1 / (L_{n-1}^alpha(x) L_n^alpha'(x)), each factor scaled by the geometric
    middle of its magnitudes so the product neither overflows nor underflows,
    then normalized to total Gamma(alpha + 1).  This is the construction of
    ``scipy.special.roots_genlaguerre``.
    """
    if n < 1 or alpha <= -1:
        raise ValidationError(f"Gauss-Laguerre rule needs n >= 1 and alpha > -1, got {n}, {alpha}")
    mass = math.gamma(alpha + 1.0)
    if n == 1:
        return np.array([alpha + 1.0]), np.array([mass])
    k = np.arange(1, n)
    jacobi = np.diag(2.0 * np.arange(n) + alpha + 1.0)
    jacobi[k, k - 1] = jacobi[k - 1, k] = -np.sqrt(k * (k + alpha))
    x = np.linalg.eigvalsh(jacobi)
    value, below = _laguerre_pair(n, alpha, x)
    slope = (n * value - (n + alpha) * below) / x  # L_n^alpha'(x)
    x = x - value / slope
    _, below = _laguerre_pair(n, alpha, x)
    for factor in (below, slope):
        logs = np.log(np.abs(factor))
        factor /= np.exp(0.5 * (logs.max() + logs.min()))
    weights = 1.0 / (below * slope)
    return x, weights * (mass / weights.sum())


def riesz_normalization_quadrature(
    params: RieszParams,
    n_radial: int = 48,
    n_angle: int = 48,
    check_points: int = 64,
) -> tuple:
    """Total mass of the density by quadrature in spectral coordinates.

    Only implemented for sym_real rank 2 with the standard frame, where the
    trace-form volume element is sqrt(2) (l1 - l2) dl1 dl2 dtheta on the
    ordered region {l1 > l2 > 0} x [0, pi).  The ordered region is mapped to
    (l2, gap) and integrated with generalized Gauss-Laguerre rules whose
    weights absorb the fractional powers at the boundary.  Returns
    (mass, spot_disagreement) where the second entry is the largest gap
    between the closed-form integrand and exp(riesz_logpdf) on a subsample
    of nodes.
    """
    algebra = params.algebra
    if algebra.kind != SYM_REAL or algebra.rank != 2:
        raise ValidationError("quadrature check supports sym_real rank 2 only")
    if params.frame.elements != standard_frame(algebra).elements:
        raise ValidationError("quadrature check needs the standard frame")
    svec = params.s.as_array()
    shifted = svec - algebra.dim / algebra.rank
    beta = shifted[1]
    a_mat = params.a.to_matrix()
    rate = float(np.linalg.eigvalsh(a_mat).min())
    if rate <= 0:
        raise DomainError("scale parameter must be positive definite")
    x_low, w_low = gauss_laguerre(n_radial, beta)  # weight x^beta e^{-x}
    x_gap, w_gap = gauss_laguerre(n_radial, 1.0)  # weight x e^{-x}
    theta = (np.arange(n_angle) + 0.5) * np.pi / n_angle
    theta_w = np.pi / n_angle
    l2, gap, th = np.meshgrid(x_low / rate, x_gap / rate, theta, indexing="ij")
    l1 = l2 + gap
    cos, sin = np.cos(th), np.sin(th)
    x11 = l1 * cos**2 + l2 * sin**2
    x22 = l1 * sin**2 + l2 * cos**2
    x12 = (l1 - l2) * sin * cos
    pairing = a_mat[0, 0] * x11 + a_mat[1, 1] * x22 + 2.0 * a_mat[0, 1] * x12
    # integrand = (l1 l2)^beta x11^(s1-s2) gap e^{-pairing}; the rules carry
    # l2^beta e^{-rate l2} and gap e^{-rate gap}, leaving this residual factor
    residual = l1**beta * x11 ** (svec[0] - svec[1]) * np.exp(
        -(pairing - rate * (l2 + gap))
    )
    weights = (
        (w_low[:, None, None] / rate ** (beta + 1.0))
        * (w_gap[None, :, None] / rate**2)
        * theta_w
        * np.sqrt(2.0)
    )
    log_norm = riesz_log_normalizer(params)
    mass = float(np.exp(log_norm) * np.sum(weights * residual))

    log_density = (
        log_norm
        + (svec[0] - svec[1]) * np.log(x11)
        + beta * np.log(l1 * l2)
        - pairing
    )
    nodes = np.linspace(0, log_density.size - 1, check_points).astype(int)
    mats = np.stack([m.ravel()[nodes] for m in (x11, x12, x12, x22)], axis=1).reshape(-1, 2, 2)
    lp = riesz_logpdf(params, Points(algebra, mats_to_coords(algebra, mats)))
    spot = float(np.max(np.abs(lp - log_density.ravel()[nodes]), initial=0.0))
    return mass, spot


# ---------------------------------------------------------------------------
# CSV persistence of coordinate rows
# ---------------------------------------------------------------------------


def write_coords_csv(path, header, rows) -> None:
    """A header row, then one row per (label, numbers) pair; numbers are written with repr."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for label, values in rows:
            writer.writerow([label] + [repr(float(v)) for v in values])


def read_coords_csv(path):
    """(header, rows) of a file in the layout of :func:`write_coords_csv`.

    Each row is (label, float array of the remaining cells).  A row whose
    cell count differs from the header's, blank rows included, or with a
    non-numeric or non-finite cell raises ValidationError naming its line.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValidationError(
                    f"{path} line {reader.line_num}: {len(row)} cells, header has {len(header)}"
                )
            try:
                values = np.array([float(v) for v in row[1:]])
            except ValueError:
                raise ValidationError(f"{path} line {reader.line_num}: non-numeric cell") from None
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"{path} line {reader.line_num}: non-finite cell")
            rows.append((row[0], values))
    return header, rows


def save_samples_csv(path, samples: Points) -> None:
    """One row per draw of a batch; coordinates in the documented basis order."""
    if not len(samples):
        raise ValidationError("refusing to write an empty sample batch")
    algebra = samples.algebra
    header = [f"algebra={algebra.name}"] + [f"c{i}" for i in range(algebra.dim)]
    write_coords_csv(path, header, (("", row) for row in samples.coords))


def load_samples_csv(path) -> Points:
    """Inverse of :func:`save_samples_csv`: the batch, bit for bit."""
    header, rows = read_coords_csv(path)
    if not header or not header[0].startswith("algebra="):
        raise ValidationError("missing algebra descriptor in CSV header")
    algebra = parse_algebra(header[0].split("=", 1)[1])
    return Points(algebra, np.array([values for _, values in rows]).reshape(len(rows), len(header) - 1))
