"""Box operator, Frobenius transformations and the triangular decomposition x = t_x e.

The triangular group of a frame (c_1, ..., c_r) follows Faraut & Korányi,
*Analysis on Symmetric Cones* (1994), ch. VI.  Each cone point x is t_x e for
a unique t_x = tau_{c_1}(z_1) ... tau_{c_(r-1)}(z_(r-1)) P(sum_k sqrt(alpha_k) c_k).
z_j lies in the span of the subspaces E_jk, k > j, and is held as its
coordinates in the frame's cached Peirce basis (:func:`upper_rows`).  The
``batch_*`` functions are the implementation: they work on (n, dim)
coordinate arrays and the frame's cached arrays; a Frobenius step is one
contraction of those coordinates with the tensor of :func:`box_tensor`, with
no Jordan product.  A :class:`TriangularBatch` holds one group element per
row; :func:`triangular_decompose` of one :class:`~conelab.algebra.Element`
is the one-row batch.  The generalized powers are characters of the group,
Delta_s(t y) = Delta_s(t e) Delta_s(y), and Delta_k(t_x e) = alpha_1 ... alpha_k:
:mod:`~conelab.peirce` reads the minors and powers from the pivots alpha_k.
Only :func:`box_operator`, :func:`frobenius_transform` and
:func:`as_endomorphism` build their maps as dim x dim matrices, from one
element or from row 0 of a batch; they are the tests' references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Element,
    Endomorphism,
    JordanFrame,
    batch_eigenvalues,
    batch_jordan_product,
    batch_norm,
    batch_quad_rep,
    identity,
    jordan_product,
    lmap,
    quad_rep,
    random_cone_points,
)
from .errors import DomainError, ValidationError
from .peirce import batch_generalized_power_log, build_peirce_basis, half_projector, peirce_projectors


def box_operator(x: Element, y: Element) -> Endomorphism:
    """The endomorphism x box y = L(xy) + L(x)L(y) - L(y)L(x)."""
    x._check_same(y)
    lx = lmap(x).matrix
    ly = lmap(y).matrix
    lxy = lmap(jordan_product(x, y)).matrix
    return Endomorphism(x.algebra, lxy + lx @ ly - ly @ lx)


def frobenius_transform(c: Element, z: Element, half: Endomorphism | None = None) -> Endomorphism:
    """tau_c(z) = I + N + N^2/2 with N = 2 z box c, for z in the half space of c.

    N is nilpotent of degree 3, so this is the exact exponential of N.
    z is projected onto the half space before use; ``half`` is that
    projection when the caller already holds it (see :func:`half_projector`).
    """
    if half is None:
        half = peirce_projectors(c)[0.5]
    z = half.apply(z)
    n = 2.0 * box_operator(z, c).matrix
    eye = np.eye(c.algebra.dim)
    return Endomorphism(c.algebra, eye + n + 0.5 * (n @ n))


def triangular_decompose(x: Element, frame) -> TriangularBatch:
    """Unique t in the triangular group of the frame with t e = x, as the one-row
    :func:`batch_triangular_decompose`.  DomainError when x is outside the cone."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    if x.algebra != frame.algebra:
        raise ValidationError("element and frame from different algebras")
    return batch_triangular_decompose(x.coords[None, :], frame)


def as_endomorphism(t: TriangularBatch) -> Endomorphism:
    """The group element of row 0 of t: composed Frobenius maps times P(sum sqrt(alpha_k) c_k)."""
    frame = t.frame
    algebra = frame.algebra
    out = quad_rep(Element(algebra, np.sqrt(t.diagonal[0]) @ frame.members)).matrix
    for j in range(len(frame) - 2, -1, -1):
        z = Element(algebra, t.frobenius_params[j][0] @ upper_rows(frame, j))
        out = frobenius_transform(frame[j], z, half_projector(frame, j)).matrix @ out
    return Endomorphism(algebra, out)


def triangular_identity_residuals(frame, n: int, rng: np.random.Generator) -> dict:
    """Largest residuals of the triangular-group identities over n random samples.

    Keys: ``roundtrip`` |t_x e - x| / |x|; ``power_cocycle``, the defect of
    log Delta_s(t_x y) = log Delta_s(t_x e) + log Delta_s(y); from rank 2 on,
    ``frobenius_unit_power`` |log Delta_s(tau_{c_i}(z) e)| and
    ``box_nilpotency`` max |N^3| for N = 2 z box c_i, z in the span of E_ik, k > i
    with standard Gaussian coordinates in :func:`upper_rows`.  One pass over
    (n, dim) arrays; the samples with the same index i share one Frobenius
    call and read their N from the tensor of :func:`box_tensor`.
    """
    algebra, r, dim = frame.algebra, len(frame), frame.algebra.dim
    x = random_cone_points(algebra, n, rng, 0.1, 10.0)
    y = random_cone_points(algebra, n, rng, 0.2, 5.0)
    s = rng.uniform(-1.5, 1.5, (n, r))
    e = np.tile(identity(algebra).coords, (n, 1))
    t = batch_triangular_decompose(x, frame)
    te, ty = t.apply(e), t.apply(y)
    unit, cube = e.copy(), np.zeros(n)  # rank 1 has no Frobenius factor: log Delta_s(e) = 0
    if r >= 2:
        index = rng.integers(0, r - 1, n)
        gauss = rng.standard_normal((n, (r - 1) * algebra.peirce_d))
        for j in range(r - 1):
            at = index == j
            coef = gauss[at, : (r - 1 - j) * algebra.peirce_d]
            unit[at] = batch_frobenius(frame, j, coef, e[at])
            mats = np.einsum("nc,acb->nab", coef, box_tensor(frame, j).reshape(dim, coef.shape[1], dim))
            cube[at] = np.max(np.abs(mats @ mats @ mats).reshape(-1, dim * dim), axis=1)
    logs = batch_generalized_power_log(frame, np.concatenate((ty, te, y, unit)), np.tile(s, (4, 1)))
    log_ty, log_te, log_y, log_unit = logs.reshape(4, n)
    found = {
        "roundtrip": batch_norm(algebra, te - x) / batch_norm(algebra, x),
        "power_cocycle": np.abs(log_ty - (log_te + log_y)),
        "frobenius_unit_power": np.abs(log_unit),
        "box_nilpotency": cube,
    }
    # np.max keeps a NaN, so it fails every gate
    return {key: float(np.max(values, initial=0.0)) for key, values in found.items()}


def constant_power_residual(frame, n: int, rng: np.random.Generator) -> float:
    """Largest relative error of Delta_(p,..,p)(v) = (det v)^p over n random v and p in [-2, 2].

    log Delta_s is linear in s, so p log Delta_(1,..,1) is log Delta_(p,..,p).
    The two sides are computed apart: log Delta_(1,..,1) = sum_k log alpha_k
    from the pivots of t_v (:func:`~conelab.peirce.batch_generalized_power_log`),
    det as the product of the eigenvalues of v.
    """
    v = random_cone_points(frame.algebra, n, rng, 0.2, 5.0)
    p = rng.uniform(-2.0, 2.0, n)
    log_delta = batch_generalized_power_log(frame, v, np.ones(len(frame)))
    log_det = np.sum(np.log(batch_eigenvalues(frame.algebra, v)), axis=1)
    # np.max keeps a NaN, so it fails the gate
    return float(np.max(np.abs(np.expm1(p * (log_delta - log_det))), initial=0.0))


# ---------------------------------------------------------------------------
# the triangular group on coordinate batches
# ---------------------------------------------------------------------------


def _lmap_t(frame: JordanFrame, j: int) -> np.ndarray:
    """L(c_j) transposed, so that v @ _lmap_t(frame, j) gives the rows c_j v; cached on the frame."""
    return frame.cached(("lmap", j), lambda: lmap(frame[j])).matrix.T


def upper_rows(frame: JordanFrame, j: int) -> np.ndarray:
    """The (k_j, dim) orthonormal rows of the subspaces E_jk, k > j, k_j = (r - 1 - j) d,
    of :func:`~conelab.peirce.build_peirce_basis`; cached on the frame, read-only.
    The Frobenius parameter z_j is held as coordinates coef with z_j = coef @ upper_rows."""

    def build() -> np.ndarray:
        basis = build_peirce_basis(frame)
        rows = np.reshape([basis.subspaces[(j, k)] for k in range(j + 1, len(frame))], (-1, frame.algebra.dim))
        rows.flags.writeable = False
        return rows

    return frame.cached(("upper", j), build)


def box_rows(frame: JordanFrame, j: int, z: np.ndarray, zc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of (z_i box c_j) v_i = (z c) v + z (c v) - c (z v), given the rows zc = z L(c_j).

    Products with c go through the frame's cached L(c_j); only :func:`box_tensor` calls it.
    """
    algebra = frame.algebra
    lc_t = _lmap_t(frame, j)
    return (
        batch_jordan_product(algebra, zc, v)
        + batch_jordan_product(algebra, z, v @ lc_t)
        - batch_jordan_product(algebra, z, v) @ lc_t
    )


def box_tensor(frame: JordanFrame, j: int) -> np.ndarray:
    """The (dim, k_j*dim) tensor of N = 2 z box c_j over :func:`upper_rows`, cached on the frame.

    Block c is the row map v -> 2 (b_c box c_j) v for the row b_c of
    ``upper_rows(frame, j)``, from :func:`box_rows` on the k_j*dim basis
    pairs.  Built on first use, read-only.
    """

    def build() -> np.ndarray:
        rows = upper_rows(frame, j)
        k, dim = rows.shape
        z = np.repeat(rows, dim, axis=0)
        out = 2.0 * box_rows(frame, j, z, z @ _lmap_t(frame, j), np.tile(np.eye(dim), (k, 1)))
        tensor = np.ascontiguousarray(out.reshape(k, dim, dim).transpose(1, 0, 2).reshape(dim, k * dim))
        tensor.flags.writeable = False
        return tensor

    return frame.cached(("box", j), build)


def batch_frobenius(frame: JordanFrame, j: int, coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows of tau_{c_j}(z_i) y_i = y + N y + N^2 y / 2 with N = 2 z box c_j.

    ``coef`` is (n, k_j): the coordinates of the z_i in :func:`upper_rows`.
    N v contracts them with v @ :func:`box_tensor`.  ``y`` is (n, dim), or
    (..., n, dim) for stacks of n rows; a stack is contracted as one batch
    of rows, with the coordinates repeated per slice.
    """
    tensor = box_tensor(frame, j)
    k, dim = coef.shape[-1], frame.algebra.dim
    shape = y.shape
    if len(shape) > 2:
        coef = np.broadcast_to(coef, shape[:-1] + (k,)).reshape(-1, k)
        y = y.reshape(-1, dim)

    def n_apply(v: np.ndarray) -> np.ndarray:
        return np.einsum("nc,nck->nk", coef, (v @ tensor).reshape(len(v), k, dim))

    ny = n_apply(y)
    return (y + ny + 0.5 * n_apply(ny)).reshape(shape)


@dataclass(frozen=True, eq=False)
class TriangularBatch:
    """The triangular elements t_x of a batch of cone points, one per row.

    Row i stands for tau_{c_1}(z_1) ... tau_{c_(r-1)}(z_(r-1)) P(sum_k sqrt(alpha_k) c_k)
    with z_j in the span of the subspaces E_jk, k > j.  ``diagonal`` is (n, r),
    the alpha_k row by row; ``frobenius_params`` holds r - 1 arrays of shape
    (n, k_j), the coordinates of the z_j in :func:`upper_rows`, row by row.
    ``apply`` and ``solve`` take (n, dim) rows y, or (..., n, dim) stacks of
    them; a one-row batch acts on any number of rows.
    """

    frame: JordanFrame
    frobenius_params: tuple
    diagonal: np.ndarray

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Rows of t_i y_i."""
        y = _batch_diagonal(self.frame, np.sqrt(self.diagonal), y)
        for j in range(len(self.frame) - 2, -1, -1):
            y = batch_frobenius(self.frame, j, self.frobenius_params[j], y)
        return y

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Rows of t_i^{-1} y_i: tau_{c_j}(z)^{-1} = tau_{c_j}(-z), P(d)^{-1} = P(d^{-1})."""
        for j in range(len(self.frame) - 1):
            y = batch_frobenius(self.frame, j, -self.frobenius_params[j], y)
        return _batch_diagonal(self.frame, self.diagonal**-0.5, y)


def _batch_diagonal(frame: JordanFrame, beta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows of P(sum_k beta_ik c_k) y_i for beta of shape (n, r)."""
    return batch_quad_rep(frame.algebra, beta @ frame.members, (beta * beta) @ frame.members, y)


def batch_triangular_decompose(x: np.ndarray, frame: JordanFrame) -> TriangularBatch:
    """The unique t_i with t_i e = x_i for every row of x; DomainError when a row leaves the cone.

    Step j reads alpha_j = <work, c_j> and z_j = S_j work / alpha_j, with S_j
    the projection onto the span of E_jk, k > j, as the coordinates
    <work, b> / alpha_j in the rows b of :func:`upper_rows`, then sets
    work <- tau_{c_j}(-z_j) work.  A row lies in the cone exactly when every
    alpha_j is positive.
    """
    algebra = frame.algebra
    r = len(frame)
    alphas = np.empty((len(x), r))
    zs = []
    work = x
    for j in range(r):
        alphas[:, j] = algebra.inner_scale * (work @ frame[j].coords)
        if np.any(alphas[:, j] <= 0):
            raise DomainError("batch contains points outside the cone")
        if j == r - 1:
            break
        coef = algebra.inner_scale * (work @ upper_rows(frame, j).T) / alphas[:, j, None]
        zs.append(coef)
        work = batch_frobenius(frame, j, -coef, work)
    return TriangularBatch(frame, tuple(zs), alphas)

