"""Quotient/sum transform, its Jacobian, density factorization and independence tests.

For independent cone variables X, Y the pair (U, V) = (g(X+Y) X, X+Y) is the
cone analogue of (X/(X+Y), X+Y).  This module implements the bijection and
its inverse, checks the Jacobian formula DDet(w(v)) = (det v)^(dim/r) by
finite differences, verifies the joint-density factorization for matched
factorized models, and runs Monte-Carlo independence and rotation-invariance
tests on sampled data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _stats
from .algebra import (
    Element,
    batch_eigenvalues,
    determinant,
    identity,
    norm,
    random_automorphism_k,
    random_cone_element,
    require_in_cone,
)
from .algorithms import MultiplicationAlgorithm, divide
from .distributions import DensityModel, in_domain_D, random_in_domain_D
from .errors import (
    ContractError,
    DomainError,
    InsufficientSampleError,
    ValidationError,
)
from .funceq import log_det_power

DEFAULT_N_PERM = 500
DEFAULT_MAX_POINTS = 1024


@dataclass(frozen=True, eq=False)
class QuotientPair:
    """The transformed pair (u, v) with u in the domain D and v in the cone."""

    u: Element
    v: Element

    def __post_init__(self) -> None:
        if not in_domain_D(self.u):
            raise DomainError("quotient component is outside the domain D")
        require_in_cone(self.v, "sum component")


def quotient_map(x: Element, y: Element, w: MultiplicationAlgorithm) -> QuotientPair:
    """(x, y) -> (g(x+y) x, x+y); both arguments must lie in the cone."""
    require_in_cone(x, "first summand")
    require_in_cone(y, "second summand")
    v = x + y
    u = divide(w, v, x)
    return QuotientPair(u, v)


def inverse_map(u: Element, v: Element, w: MultiplicationAlgorithm):
    """(u, v) -> (w(v) u, w(v)(e - u)); the inverse of :func:`quotient_map`."""
    if not in_domain_D(u):
        raise DomainError("first argument must lie in the domain D")
    require_in_cone(v, "second argument")
    algebra = u.algebra
    rows = np.stack([u.coords, identity(algebra).coords - u.coords])
    x, y = w.apply_batch(v.coords[None, :], rows)
    return Element(algebra, x), Element(algebra, y)


def jacobian_check(
    v: Element,
    w: MultiplicationAlgorithm,
    fd_step: float = 1e-5,
    u: Optional[Element] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Analytic Jacobian (det v)^(dim/r) of the inverse map versus central differences.

    The numeric value is the determinant of the full 2*dim x 2*dim derivative
    of (u, v) -> (w(v) u, w(v)(e - u)); the whole central-difference stencil
    is evaluated by two prepared batches, of v and of the 2*dim rows of the v stencil.
    """
    if fd_step <= 0:
        raise ValidationError("finite-difference step must be positive")
    algebra = v.algebra
    require_in_cone(v, "evaluation point")
    if u is None:
        u = (
            random_in_domain_D(algebra, rng)
            if rng is not None
            else 0.5 * identity(algebra)
        )
    if not in_domain_D(u):
        raise DomainError("the auxiliary point must lie in the domain D")
    analytic = determinant(v) ** (algebra.dim / algebra.rank)
    dim = algebra.dim
    e = identity(algebra).coords
    h_u = fd_step * (1.0 + norm(u))
    h_v = fd_step * (1.0 + norm(v))
    if h_u == 0.0 or h_v == 0.0 or 1.0 + h_u == 1.0 or 1.0 + h_v == 1.0:
        raise ArithmeticError("finite-difference step underflowed")
    # the stencil rows u +/- h_u b_k and v +/- h_v b_k, plus signs first
    us = np.concatenate([u.coords + h_u * np.eye(dim), u.coords - h_u * np.eye(dim)])
    vs = np.concatenate([v.coords + h_v * np.eye(dim), v.coords - h_v * np.eye(dim)])
    # (w(v) u, w(v)(e - u)) at the u stencil with v fixed, then at the v stencil with u fixed
    at_v = w.apply_batch(v.coords[None, :], np.concatenate([us, e - us]))
    fixed_u = np.broadcast_to(np.stack([u.coords, e - u.coords])[:, None, :], (2, 2 * dim, dim))
    at_u = w.at(vs).apply(fixed_u).reshape(4 * dim, dim)
    columns = []
    for images, h in ((at_v, h_u), (at_u, h_v)):
        forward = np.hstack([images[: 2 * dim], images[2 * dim :]])
        columns.append((forward[:dim] - forward[dim:]).T / (2.0 * h))
    jac = np.hstack(columns)
    numeric = float(np.linalg.det(jac))
    return float(analytic), numeric


def jacobian_residual(
    w: MultiplicationAlgorithm, n: int, rng: np.random.Generator, low: float, high: float, fd_step: float = 1e-5
) -> float:
    """Largest relative error of :func:`jacobian_check` over n points, each drawing from ``rng``
    its v with spectrum in [low, high] and then its u; a NaN is kept, so it fails every gate."""
    errors = []
    for _ in range(n):
        v = random_cone_element(w.algebra, rng, low, high)
        analytic, numeric = jacobian_check(v, w, fd_step, rng=rng)
        errors.append(abs(analytic - numeric) / abs(analytic))
    return float(np.max(errors, initial=0.0))


# ---------------------------------------------------------------------------
# batched quotient computation
# ---------------------------------------------------------------------------


def batch_quotient(
    w: MultiplicationAlgorithm, x: np.ndarray, y: np.ndarray
) -> tuple:
    """(u, v) coordinate batches of the quotient map: v = x + y, u = g(v) x."""
    v = x + y
    return w.solve_batch(v, x), v


def bijection_residual(w: MultiplicationAlgorithm, x: np.ndarray, y: np.ndarray) -> float:
    """Max gap |w(v) u - x| + |v - w(v) u - y|, in the inner-product norm, of the quotient map
    of (n, dim) cone rows x, y and its inverse; DomainError when a row u leaves the domain D."""
    algebra = w.algebra
    u, v = batch_quotient(w, x, y)
    lam_u = batch_eigenvalues(algebra, u)
    if not (np.all(lam_u > 0.0) and np.all(lam_u < 1.0)):
        raise DomainError("quotient component is outside the domain D")
    x2 = w.apply_batch(v, u)
    gap = np.linalg.norm(x2 - x, axis=1) + np.linalg.norm(v - x2 - y, axis=1)
    return float(np.sqrt(algebra.inner_scale) * np.max(gap))


# ---------------------------------------------------------------------------
# density factorization
# ---------------------------------------------------------------------------


def factorization_residual(
    model_x: DensityModel,
    model_y: DensityModel,
    w: MultiplicationAlgorithm,
    samples,
    strict: bool = True,
) -> float:
    """Deviation of the joint density of (U, V) from a product of closed forms.

    ``samples`` is a pair (x, y) of (n, dim) coordinate arrays of cone points.

    For matched models (shared scale parameter, functions multiplicative for
    the same w) the identity holds exactly and the residual is float noise.
    The closed forms for U and V are known only up to normalizing constants,
    so a single global offset is fitted before taking the max deviation.
    """
    algebra = model_x.algebra
    if model_y.algebra != algebra or w.algebra != algebra:
        raise ValidationError("models and algorithm must share an algebra")
    lam_gap = norm(model_x.lam - model_y.lam)
    if lam_gap > 1e-9:
        if strict:
            raise ContractError(
                f"models carry different scale parameters (gap {lam_gap:.3e}); "
                "pass strict=False to measure the failure"
            )
    x, y = samples
    v = x + y
    uu = w.unit_image().apply_batch(w.solve_batch(v, x))
    e = identity(algebra).coords
    f_x, f_y = model_x.mult_fn.evaluator, model_y.mult_fn.evaluator
    lam_x, lam_y = (algebra.inner_scale * model.lam.coords for model in (model_x, model_y))
    jacobian = log_det_power(algebra.dim / algebra.rank, algebra).evaluator(v)
    lhs = jacobian + f_x(x) + x @ lam_x + f_y(y) + y @ lam_y
    log_f_u = f_x(uu) + f_y(e - uu)
    log_f_v = jacobian + f_x(v) + f_y(v) + v @ lam_x
    deltas = lhs - (log_f_u + log_f_v)
    return float(np.max(np.abs(deltas - deltas.mean()))) if len(deltas) else 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo independence tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceReport:
    """Distance-correlation permutation test between the quotient and the sum."""

    statistic: float
    p_value: float
    n: int
    n_used: int
    n_perm: int
    seeds: dict = field(default_factory=dict)


def independence_test(
    samples_x,
    samples_y,
    w: MultiplicationAlgorithm,
    n_perm: int = DEFAULT_N_PERM,
    rng: Optional[np.random.Generator] = None,
    max_points: int = DEFAULT_MAX_POINTS,
) -> IndependenceReport:
    """Distance correlation between whitened U and V coordinates of two equal-length sample
    batches, with a permutation p-value; deterministic given the generator state."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(samples_x)
    if len(samples_y) != n:
        raise ValidationError("sample batches must have equal length")
    if n < 100:
        raise InsufficientSampleError(f"need at least 100 samples, got {n}")
    seeds = _stats.rng_seed_record(rng)
    u, v = batch_quotient(w, samples_x.coords, samples_y.coords)
    u_w = _stats.whiten(u)
    v_w = _stats.whiten(v)
    stat, p_value, n_used = _stats.dcor_permutation_test(
        u_w, v_w, n_perm, rng, max_points
    )
    return IndependenceReport(stat, p_value, n, n_used, n_perm, seeds)


@dataclass(frozen=True)
class KQuotientReport:
    """Two-sample energy tests between U and rotated copies kU."""

    p_values: tuple
    statistics: tuple
    n_reject: int
    threshold: float
    n: int


def k_invariant_quotient_check(
    model_x: DensityModel,
    model_y: DensityModel,
    w: MultiplicationAlgorithm,
    rng: np.random.Generator,
    n: int,
    n_rotations: int = 20,
    n_perm: int = 199,
    threshold: float = 0.01,
    max_points: int = 768,
) -> KQuotientReport:
    """Sample (X, Y), form U, and energy-test U against kU for random rotations.

    One half of the U sample plays the reference, the other half is rotated,
    so the two groups are independent under the null of invariance.
    """
    algebra = model_x.algebra
    if model_x.riesz_params is None or model_y.riesz_params is None:
        raise ValidationError("both models need sampler parameters")
    u, _ = batch_quotient(w, model_x.sample(n, rng).coords, model_y.sample(n, rng).coords)
    half = len(u) // 2
    ref, other = u[:half], u[half:]
    p_values = []
    stats = []
    for _ in range(n_rotations):
        k = random_automorphism_k(algebra, rng)
        rotated = other @ k.matrix.T
        stat, p_value, _ = _stats.energy_permutation_test(
            ref, rotated, n_perm, rng, max_points
        )
        p_values.append(p_value)
        stats.append(stat)
    n_reject = int(sum(p < threshold for p in p_values))
    return KQuotientReport(
        tuple(p_values), tuple(stats), n_reject, threshold, n
    )
