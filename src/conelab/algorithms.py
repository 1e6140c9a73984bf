"""Multiplication and division algorithms w, g = w^{-1} as first-class objects.

An algorithm maps each cone point x to a cone automorphism w(x) with
w(x) e = x.  The two canonical constructions are the quadratic one
(w1: x -> P(x^{1/2})) and the triangular one (w2: x -> t_x); ``interp``
blends them and ``k_extended`` post-composes with a fixed rotation.

An algorithm is defined only by its two row maps, which apply w(x) or
g(x) = w(x)^{-1} to (n, dim) coordinate batches
(:meth:`MultiplicationAlgorithm.apply_batch` and
:meth:`MultiplicationAlgorithm.solve_batch`).  Everything else is derived
from them: the matrices w(x_i) are the images of the coordinate basis
(:meth:`MultiplicationAlgorithm.matrices`), and :func:`multiply` and
:func:`divide` are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    Endomorphism,
    JordanFrame,
    batch_eigenvalues,
    batch_norm,
    batch_powers,
    batch_quad_rep,
    identity,
    norm,
    random_automorphism_k,
    random_cone_points,
    require_in_cone,
    standard_frame,
)
from .errors import ValidationError
from .triangular import batch_triangular_decompose

BatchMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class MultiplicationAlgorithm:
    """A map x -> w(x) in the automorphism group with w(x) e = x.

    ``batch_apply`` and ``batch_solve`` map coordinate rows (x_i, y_i) to
    w(x_i) y_i and g(x_i) y_i without forming w(x_i); a single x row is
    broadcast over every y row.  Calling the algorithm on one point is the
    one-row call of :meth:`matrices`.
    """

    kind: str
    algebra: AlgebraDescriptor
    batch_apply: BatchMap = field(repr=False)
    batch_solve: BatchMap = field(repr=False)
    homogeneous: bool = True
    frame: Optional[JordanFrame] = None
    alpha: Optional[float] = None
    spec: str = ""

    def __call__(self, x: Element) -> Endomorphism:
        require_in_cone(x, "multiplication algorithm argument")
        return Endomorphism(self.algebra, self.matrices(x.coords[None, :])[0])

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """The matrices w(x_i) of (n, dim) rows x, shape (n, dim, dim), from one apply_batch.

        Column k of w(x_i) is w(x_i) b_k: each x row is repeated against the dim
        rows of the coordinate basis, and a single x row is broadcast instead.
        """
        dim = self.algebra.dim
        rows = x if len(x) == 1 else np.repeat(x, dim, axis=0)
        columns = self.apply_batch(rows, np.tile(np.eye(dim), (len(x), 1)))
        return columns.reshape(len(x), dim, dim).transpose(0, 2, 1)

    def apply_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows w(x_i) y_i for (n, dim) y and x of n rows or of one row, broadcast;
        DomainError when an x_i leaves the cone."""
        return self.batch_apply(*self._rows(x, y))

    def solve_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows g(x_i) y_i with g = w^{-1}; the batched form of :func:`divide`."""
        return self.batch_solve(*self._rows(x, y))

    def _rows(self, x, y) -> tuple:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dim = self.algebra.dim
        shapes_ok = x.ndim == 2 and y.ndim == 2 and x.shape[1] == dim == y.shape[1]
        if not shapes_ok or len(x) not in (1, len(y)):
            raise ValidationError(
                f"expected (n, {dim}) coordinate arrays x and y, or x of one row, "
                f"got {x.shape} and {y.shape}"
            )
        return x, y

    def unit_image(self) -> Endomorphism:
        """w(e); the identity for w1/w2/interp, the fixed rotation for k_extended."""
        return self(identity(self.algebra))


def _quad_power_rows(algebra: AlgebraDescriptor, p: float) -> BatchMap:
    """Rows of P(x^p) y = 2 x^p (x^p y) - x^(2p) y."""

    def rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return batch_quad_rep(algebra, *batch_powers(algebra, x, p, 2.0 * p), y)

    return rows


def w1(algebra: AlgebraDescriptor) -> MultiplicationAlgorithm:
    """The quadratic algorithm x -> P(x^{1/2}); g(x) = P(x^{-1/2})."""
    return MultiplicationAlgorithm(
        kind="w1",
        algebra=algebra,
        batch_apply=_quad_power_rows(algebra, 0.5),
        batch_solve=_quad_power_rows(algebra, -0.5),
        homogeneous=True,
        spec="w1",
    )


def w2(frame) -> MultiplicationAlgorithm:
    """The triangular algorithm x -> t_x for a fixed frame."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    return MultiplicationAlgorithm(
        kind="w2",
        algebra=frame.algebra,
        batch_apply=lambda x, y: batch_triangular_decompose(x, frame).apply(y),
        batch_solve=lambda x, y: batch_triangular_decompose(x, frame).solve(y),
        homogeneous=True,
        frame=frame,
        spec="w2",
    )


def interp(alpha: float, frame) -> MultiplicationAlgorithm:
    """P(x^alpha) composed with t_{x^{1-2alpha}}: w1 at alpha=1/2, w2 at alpha=0."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    alpha = float(alpha)
    algebra = frame.algebra

    def apply_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        head, head_sq, q = batch_powers(algebra, x, alpha, 2.0 * alpha, 1.0 - 2.0 * alpha)
        return batch_quad_rep(algebra, head, head_sq, batch_triangular_decompose(q, frame).apply(y))

    def solve_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # g(x) = t_q^{-1} P(x^{-alpha}) with q = x^(1 - 2 alpha)
        head, head_sq, q = batch_powers(algebra, x, -alpha, -2.0 * alpha, 1.0 - 2.0 * alpha)
        return batch_triangular_decompose(q, frame).solve(batch_quad_rep(algebra, head, head_sq, y))

    return MultiplicationAlgorithm(
        kind="interp",
        algebra=algebra,
        batch_apply=apply_rows,
        batch_solve=solve_rows,
        homogeneous=True,
        frame=frame,
        alpha=alpha,
        spec=f"interp:{alpha:g}",
    )


def k_extended(base: MultiplicationAlgorithm, k: Endomorphism, spec: str = "") -> MultiplicationAlgorithm:
    """x -> base(x) k for a fixed rotation k; still neutral since k e = e."""
    if k.algebra != base.algebra:
        raise ValidationError("rotation and base algorithm from different algebras")
    if norm(k.apply(identity(base.algebra)) - identity(base.algebra)) > 1e-9:
        raise ValidationError("the extension factor must fix e")
    # rows: w(x) y = base(x) (k y), g(x) y = k^{-1} g_base(x) y
    k_t = k.matrix.T
    k_inv_t = np.linalg.inv(k.matrix).T
    return MultiplicationAlgorithm(
        kind="kext",
        algebra=base.algebra,
        batch_apply=lambda x, y: base.batch_apply(x, y @ k_t),
        batch_solve=lambda x, y: base.batch_solve(x, y) @ k_inv_t,
        homogeneous=base.homogeneous,
        frame=base.frame,
        spec=spec or f"kext:{base.spec}",
    )


def piecewise_det(frame) -> MultiplicationAlgorithm:
    """w1 where det x > 1, w2 elsewhere; a valid algorithm that is not homogeneous."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    quad = w1(frame.algebra)
    tri = w2(frame)

    def split(quad_rows: BatchMap, tri_rows: BatchMap) -> BatchMap:
        def rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            upper = np.prod(batch_eigenvalues(frame.algebra, x), axis=1) > 1.0
            if len(x) == 1:  # one w(x) for every y row: one branch takes them all
                return (quad_rows if upper[0] else tri_rows)(x, y)
            out = np.empty_like(y)
            for mask, branch_rows in ((upper, quad_rows), (~upper, tri_rows)):
                if mask.any():
                    out[mask] = branch_rows(x[mask], y[mask])
            return out

        return rows

    return MultiplicationAlgorithm(
        kind="piecewise",
        algebra=frame.algebra,
        batch_apply=split(quad.batch_apply, tri.batch_apply),
        batch_solve=split(quad.batch_solve, tri.batch_solve),
        homogeneous=False,
        frame=frame,
        spec="piecewise",
    )


def parse_algorithm(spec: str, algebra: AlgebraDescriptor, frame=None) -> MultiplicationAlgorithm:
    """Build an algorithm from its config string.

    Recognized forms: "w1", "w2", "interp:<alpha>", "kext:<base>:<seed>".
    """
    frame = frame if frame is not None else standard_frame(algebra)
    spec = spec.strip()
    if spec == "w1":
        return w1(algebra)
    if spec == "w2":
        return w2(frame)
    if spec.startswith("interp:"):
        try:
            alpha = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad interpolation parameter in {spec!r}") from exc
        return interp(alpha, frame)
    if spec.startswith("kext:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"expected kext:<base>:<seed>, got {spec!r}")
        base = parse_algorithm(parts[1], algebra, frame)
        try:
            seed = int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad seed in {spec!r}") from exc
        k = random_automorphism_k(algebra, np.random.default_rng(seed))
        return k_extended(base, k, spec=spec)
    raise ValidationError(f"unknown algorithm spec {spec!r}")


# ---------------------------------------------------------------------------
# evaluation and verification
# ---------------------------------------------------------------------------


def multiply(w: MultiplicationAlgorithm, x: Element, y: Element) -> Element:
    """w(x) y as a one-row apply_batch; multiply(w, x, e) = x."""
    return Element(y.algebra, w.apply_batch(x.coords[None, :], y.coords[None, :])[0])


def divide(w: MultiplicationAlgorithm, x: Element, y: Element) -> Element:
    """g(x) y with g = w^{-1}, as a one-row solve_batch; divide(w, x, x) = e."""
    return Element(y.algebra, w.solve_batch(x.coords[None, :], y.coords[None, :])[0])


@dataclass(frozen=True)
class AlgorithmReport:
    """Max residuals of the defining and structural properties over a sample."""

    spec: str
    samples: int
    neutrality: float
    cone_violation: float
    homogeneity: float
    divide_scaling: float
    ddet_rel: float
    homogeneous: bool

    def as_dict(self) -> dict:
        return {
            "spec": self.spec,
            "samples": self.samples,
            "neutrality": self.neutrality,
            "cone_violation": self.cone_violation,
            "homogeneity": self.homogeneity,
            "divide_scaling": self.divide_scaling,
            "ddet_rel": self.ddet_rel,
            "homogeneous": self.homogeneous,
        }


def check_algorithm(
    w: MultiplicationAlgorithm,
    sample_count: int,
    rng: np.random.Generator,
    homogeneity_tol: float = 1e-9,
) -> AlgorithmReport:
    """Measure neutrality, cone preservation, degree-1 scaling and the
    endomorphism-determinant law DDet(w(y)) = (det y)^(dim/r).

    Every residual is read from the stacked matrices w(x_i) and w(s_i x_i).
    """
    algebra = w.algebra
    exponent = algebra.dim / algebra.rank
    x = random_cone_points(algebra, sample_count, rng, 0.2, 5.0)
    y = random_cone_points(algebra, sample_count, rng, 0.2, 5.0)
    s = np.exp(rng.uniform(np.log(0.25), np.log(4.0), sample_count))
    wx = w.matrices(x)
    ws = w.matrices(s[:, None] * x)
    scale = s[:, None, None]
    dd = np.linalg.det(wx)
    det_x = np.prod(batch_eigenvalues(algebra, x), axis=1)
    wx_y = (wx @ y[:, :, None])[:, :, 0]
    # np.max keeps a NaN, so it fails every gate
    neutrality, cone_violation, homogeneity, divide_scaling, ddet_rel = (
        float(np.max(v, initial=0.0))
        for v in (
            batch_norm(algebra, wx @ identity(algebra).coords - x) / np.maximum(batch_norm(algebra, x), 1.0),
            np.maximum(0.0, -np.min(batch_eigenvalues(algebra, wx_y), axis=1)),
            np.max(np.abs(ws - scale * wx), axis=(1, 2)) / np.maximum(s, 1.0),
            np.max(np.abs(np.linalg.inv(ws) - np.linalg.inv(wx) / scale), axis=(1, 2)),
            np.abs(dd - det_x**exponent) / np.abs(dd),
        )
    )
    return AlgorithmReport(
        spec=w.spec or w.kind,
        samples=sample_count,
        neutrality=neutrality,
        cone_violation=cone_violation,
        homogeneity=homogeneity,
        divide_scaling=divide_scaling,
        ddet_rel=ddet_rel,
        homogeneous=homogeneity <= homogeneity_tol,
    )
