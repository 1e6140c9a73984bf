"""Multiplication and division algorithms w, g = w^{-1} as first-class objects.

An algorithm maps each cone point x to a cone automorphism w(x) with
w(x) e = x.  The two canonical constructions are the quadratic one
(w1: x -> P(x^{1/2})) and the triangular one (w2: x -> t_x); ``interp``
blends them and ``k_extended`` post-composes with a fixed rotation.

An algorithm is defined by one map, ``prepare``: it takes (n, dim)
coordinate rows x, does the work that depends on x alone once, and returns
a batch whose ``apply(y)`` and ``solve(y)`` give the rows w(x_i) y_i and
g(x_i) y_i with g(x) = w(x)^{-1}.  Everything else is derived from it:
:meth:`MultiplicationAlgorithm.apply_batch` and
:meth:`MultiplicationAlgorithm.solve_batch` are one prepared batch each,
the matrices w(x_i) are the images of the coordinate basis under one
prepared batch (:meth:`MultiplicationAlgorithm.matrices`), and
:func:`multiply` and :func:`divide` are one-row calls.
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
    batch_power_map,
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


@dataclass(frozen=True)
class RowMaps:
    """A prepared batch given by its row maps: y -> rows w(x_i) y_i and y -> rows g(x_i) y_i."""

    apply: Callable[[np.ndarray], np.ndarray]
    solve: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class MultiplicationAlgorithm:
    """A map x -> w(x) in the automorphism group with w(x) e = x.

    ``prepare`` maps (n, dim) rows x to a batch whose ``apply(y)`` and
    ``solve(y)`` give the rows w(x_i) y_i and g(x_i) y_i without forming
    w(x_i).  y is (n, dim) or a (..., n, dim) stack of such rows; a batch of
    one x row is broadcast over every y row.  A batch does not check y: the
    checked calls are :meth:`apply_batch` and :meth:`solve_batch`.  Calling
    the algorithm on one point is the one-row call of :meth:`matrices`.
    """

    kind: str
    algebra: AlgebraDescriptor
    prepare: Callable[[np.ndarray], object] = field(repr=False)
    homogeneous: bool = True
    frame: Optional[JordanFrame] = None
    alpha: Optional[float] = None
    spec: str = ""

    def __call__(self, x: Element) -> Endomorphism:
        require_in_cone(x, "multiplication algorithm argument")
        return Endomorphism(self.algebra, self.matrices(x.coords[None, :])[0])

    def at(self, x: np.ndarray):
        """The prepared batch of (n, dim) rows x, for many y against the same x;
        DomainError when an x_i leaves the cone.  Its ``apply``/``solve`` do not check y."""
        x = np.asarray(x, dtype=float)
        dim = self.algebra.dim
        if x.ndim != 2 or x.shape[1] != dim:
            raise ValidationError(f"expected (n, {dim}) coordinate rows x, got {x.shape}")
        return self.prepare(x)

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """The matrices w(x_i) of (n, dim) rows x, shape (n, dim, dim).

        Column k of w(x_i) is w(x_i) b_k: one prepared batch applied to the
        (dim, n, dim) stack whose slice k repeats the basis vector b_k.
        """
        batch = self.at(x)
        dim = self.algebra.dim
        basis = np.broadcast_to(np.eye(dim)[:, None, :], (dim, len(x), dim))
        return np.ascontiguousarray(batch.apply(basis).transpose(1, 2, 0))

    def apply_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows w(x_i) y_i for (n, dim) y and x of n rows or of one row, broadcast;
        DomainError when an x_i leaves the cone."""
        return self.at(x).apply(self._y_rows(len(x), y))

    def solve_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows g(x_i) y_i with g = w^{-1}; the batched form of :func:`divide`."""
        return self.at(x).solve(self._y_rows(len(x), y))

    def _y_rows(self, n: int, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        dim = self.algebra.dim
        if y.ndim != 2 or y.shape[1] != dim or n not in (1, len(y)):
            raise ValidationError(
                f"expected (m, {dim}) coordinate rows y, one per row of x unless x has one row; "
                f"got {y.shape} for {n} rows of x"
            )
        return y

    def unit_image(self) -> Endomorphism:
        """w(e); the identity for w1/w2/interp, the fixed rotation for k_extended."""
        return self(identity(self.algebra))


def w1(algebra: AlgebraDescriptor) -> MultiplicationAlgorithm:
    """The quadratic algorithm x -> P(x^{1/2}); g(x) = P(x^{-1/2})."""

    def prepare(x: np.ndarray) -> RowMaps:
        power = batch_power_map(algebra, x)  # P(x^p) is read from the rows of x^p and x^2p
        return RowMaps(
            lambda y: batch_quad_rep(algebra, power(0.5), power(1.0), y),
            lambda y: batch_quad_rep(algebra, power(-0.5), power(-1.0), y),
        )

    return MultiplicationAlgorithm(kind="w1", algebra=algebra, prepare=prepare, homogeneous=True, spec="w1")


def w2(frame) -> MultiplicationAlgorithm:
    """The triangular algorithm x -> t_x for a fixed frame; the batch is the t_x themselves."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    return MultiplicationAlgorithm(
        kind="w2",
        algebra=frame.algebra,
        prepare=lambda x: batch_triangular_decompose(x, frame),
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

    def prepare(x: np.ndarray) -> RowMaps:
        power = batch_power_map(algebra, x)
        tail = batch_triangular_decompose(power(1.0 - 2.0 * alpha), frame)
        return RowMaps(
            lambda y: batch_quad_rep(algebra, power(alpha), power(2.0 * alpha), tail.apply(y)),
            # g(x) = t_q^{-1} P(x^{-alpha}) with q = x^(1 - 2 alpha)
            lambda y: tail.solve(batch_quad_rep(algebra, power(-alpha), power(-2.0 * alpha), y)),
        )

    return MultiplicationAlgorithm(
        kind="interp",
        algebra=algebra,
        prepare=prepare,
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

    def prepare(x: np.ndarray) -> RowMaps:
        batch = base.prepare(x)
        return RowMaps(lambda y: batch.apply(y @ k_t), lambda y: batch.solve(y) @ k_inv_t)

    return MultiplicationAlgorithm(
        kind="kext",
        algebra=base.algebra,
        prepare=prepare,
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

    def prepare(x: np.ndarray) -> RowMaps:
        upper = np.prod(batch_eigenvalues(frame.algebra, x), axis=1) > 1.0
        branches = ((upper, quad.prepare(x[upper])), (~upper, tri.prepare(x[~upper])))

        def split(method: str, y: np.ndarray) -> np.ndarray:
            out = np.empty(y.shape)
            for mask, batch in branches:
                mask = np.broadcast_to(mask, y.shape[-2])  # one x row: its branch takes every y row
                out[..., mask, :] = getattr(batch, method)(y[..., mask, :])
            return out

        return RowMaps(lambda y: split("apply", y), lambda y: split("solve", y))

    return MultiplicationAlgorithm(
        kind="piecewise",
        algebra=frame.algebra,
        prepare=prepare,
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
    """Max residuals over a sample of w(x) e = x, w(x) y in the cone, w(s x) = s w(x),
    w(s x)^{-1} = w(x)^{-1} / s, DDet w(x) = (det x)^(dim/r), det(w(x) y) = det x det y
    and g(x) (w(x) y) = y, in field order."""

    spec: str
    samples: int
    neutrality: float
    cone_violation: float
    homogeneity: float
    divide_scaling: float
    ddet_rel: float
    det_multiplicativity: float
    divide_roundtrip: float
    homogeneous: bool


def check_algorithm(
    w: MultiplicationAlgorithm,
    sample_count: int,
    rng: np.random.Generator,
    homogeneity_tol: float = 1e-9,
) -> AlgorithmReport:
    """The residuals of :class:`AlgorithmReport` on one draw of cone points x, y and scales s.

    All but the division roundtrip are read from the stacked matrices w(x_i)
    and w(s_i x_i); the roundtrip is one ``solve_batch`` of x over the rows w(x_i) y_i.
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
    det_x, det_y = (np.prod(batch_eigenvalues(algebra, z), axis=1) for z in (x, y))
    wx_y = (wx @ y[:, :, None])[:, :, 0]
    lam_wx_y = batch_eigenvalues(algebra, wx_y)
    # np.max keeps a NaN, so it fails every gate
    neutrality, cone_violation, homogeneity, divide_scaling, ddet_rel, det_mult, roundtrip = (
        float(np.max(v, initial=0.0))
        for v in (
            batch_norm(algebra, wx @ identity(algebra).coords - x) / np.maximum(batch_norm(algebra, x), 1.0),
            np.maximum(0.0, -np.min(lam_wx_y, axis=1)),
            np.max(np.abs(ws - scale * wx), axis=(1, 2)) / np.maximum(s, 1.0),
            np.max(np.abs(np.linalg.inv(ws) - np.linalg.inv(wx) / scale), axis=(1, 2)),
            np.abs(dd - det_x**exponent) / np.abs(dd),
            np.abs(np.prod(lam_wx_y, axis=1) - det_x * det_y) / np.abs(det_x * det_y),
            np.linalg.norm(w.solve_batch(x, wx_y) - y, axis=1) / np.linalg.norm(y, axis=1),
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
        det_multiplicativity=det_mult,
        divide_roundtrip=roundtrip,
        homogeneous=homogeneity <= homogeneity_tol,
    )
