"""Peirce decomposition, principal minors and generalized power functions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Element,
    Endomorphism,
    JordanFrame,
    batch_eigenvalues,
    identity,
    inner,
    is_idempotent,
    jordan_product,
    norm,
    quad_rep,
)
from .errors import DomainError, ValidationError

PEIRCE_EIGENVALUES = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class PowerExponent:
    """Exponent vector s = (s_1, ..., s_r) of a generalized power function."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, values) -> "PowerExponent":
        if isinstance(values, PowerExponent):
            return values
        values = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(tuple(values))

    @classmethod
    def constant(cls, p: float, rank: int) -> "PowerExponent":
        return cls((float(p),) * rank)

    def as_array(self) -> np.ndarray:
        return np.array(self.values)

    def __len__(self) -> int:
        return len(self.values)


def exponent_vector(s, rank: int) -> np.ndarray:
    """The exponent s as an array of ``rank`` entries; ValidationError otherwise."""
    s = PowerExponent.of(s)
    if len(s) != rank:
        raise ValidationError(f"exponent has {len(s)} entries, rank is {rank}")
    return s.as_array()


# ---------------------------------------------------------------------------
# projections onto Peirce eigenspaces
# ---------------------------------------------------------------------------


def peirce_projectors(c: Element, tol: float = 1e-8) -> dict:
    """Orthogonal projections onto the eigenspaces of L(c), keyed by 0, 1/2, 1.

    P(c) projects onto the eigenvalue-1 space and P(e - c) onto the
    eigenvalue-0 space; the half space absorbs the rest.
    """
    if not is_idempotent(c, tol):
        raise ValidationError("Peirce projections require an idempotent")
    algebra = c.algebra
    p1 = quad_rep(c)
    p0 = quad_rep(identity(algebra) - c)
    ph = Endomorphism(algebra, np.eye(algebra.dim) - p1.matrix - p0.matrix)
    return {0.0: p0, 0.5: ph, 1.0: p1}


def half_projector(frame: JordanFrame, j: int) -> Endomorphism:
    """Projection onto the Peirce half space of the frame member c_j, cached on the frame."""
    return frame.cached(("half", j), lambda: peirce_projectors(frame[j])[0.5])


def peirce_project(x: Element, c: Element, eigenvalue: float) -> Element:
    """Component of x in the L(c)-eigenspace for eigenvalue 0, 1/2 or 1."""
    ev = float(eigenvalue)
    if ev not in PEIRCE_EIGENVALUES:
        raise ValidationError("eigenvalue must be one of 0, 1/2, 1")
    return peirce_projectors(c)[ev].apply(x)


# ---------------------------------------------------------------------------
# the joint decomposition for a full frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PeirceBasis:
    """Orthonormal bases of the subspaces E_ij attached to a frame.

    ``subspaces[(i, j)]`` is a (d_ij, dim) array of coordinate rows,
    orthonormal in the trace form; d_ii = 1 and d_ij = d for i < j.
    """

    frame: JordanFrame
    subspaces: dict = field(repr=False)

    def projector_matrix(self, i: int, j: int) -> np.ndarray:
        rows = self.subspaces[(min(i, j), max(i, j))]
        scale = self.frame.algebra.inner_scale
        return scale * rows.T @ rows

    def project(self, x: Element, i: int, j: int) -> Element:
        return Element(x.algebra, self.projector_matrix(i, j) @ x.coords)

    def gaussian(self, i: int, j: int, rng: np.random.Generator) -> Element:
        """Element of E_ij with standard Gaussian coordinates in its orthonormal basis."""
        rows = self.subspaces[(min(i, j), max(i, j))]
        return Element(self.frame.algebra, rng.standard_normal(rows.shape[0]) @ rows)


def _gram_schmidt_rows(candidates: np.ndarray, scale: float, expect: int) -> np.ndarray:
    """Orthonormalize candidate coordinate rows (trace form) in deterministic order."""
    rows = []
    for cand in candidates:
        v = cand.copy()
        for b in rows:
            v -= (scale * np.dot(b, v)) * b
        length = np.sqrt(scale) * np.linalg.norm(v)
        if length > 1e-8:
            rows.append(v / length)
        if len(rows) == expect:
            break
    return np.array(rows) if rows else np.zeros((0, candidates.shape[1]))


def build_peirce_basis(frame) -> PeirceBasis:
    """Split the algebra into the subspaces E_ij determined by a frame."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    algebra = frame.algebra
    r = algebra.rank
    scale = algebra.inner_scale
    half = [half_projector(frame, j).matrix for j in range(r)]
    subspaces = {}
    total = 0
    basis_eye = np.eye(algebra.dim)
    for i in range(r):
        subspaces[(i, i)] = frame[i].coords[None, :] / norm(frame[i])
        total += 1
        for j in range(i + 1, r):
            proj = half[i] @ half[j]
            candidates = (proj @ basis_eye).T
            rows = _gram_schmidt_rows(candidates, scale, algebra.peirce_d)
            if rows.shape[0] != algebra.peirce_d:
                raise ValidationError(
                    f"subspace ({i},{j}) has dimension {rows.shape[0]}, "
                    f"expected {algebra.peirce_d}"
                )
            subspaces[(i, j)] = rows
            total += algebra.peirce_d
    if total != algebra.dim:
        raise ValidationError("Peirce subspace dimensions do not sum to dim")
    return PeirceBasis(frame, subspaces)


def _pair_identities(x: Element, y, i: int, j: int, frame: JordanFrame):
    """(x^2, xy, residual of x^2 = |x|^2 (c_i + c_j)/2, residual of |xy|^2 = |x|^2 |y|^2 / 8).

    x lies in E_ij and y in E_jk with k != i, or y is None and so are the entries it feeds.
    """
    x_sq = jordan_product(x, x)
    nx = inner(x, x)
    square = norm(x_sq - 0.5 * nx * (frame[i] + frame[j]))
    if y is None:
        return x_sq, None, square, None
    xy = jordan_product(x, y)
    return x_sq, xy, square, abs(inner(xy, xy) - nx * inner(y, y) / 8.0)


def peirce_norm_identities(
    x: Element,
    y: Element,
    i: int,
    j: int,
    k: int,
    basis: PeirceBasis,
    tol: float = 1e-9,
):
    """Square and cross-norm identities for x in E_ij, y in E_jk with i != k.

    Returns (x^2, |xy|^2) after checking x^2 = |x|^2 (c_i + c_j) / 2 and
    |xy|^2 = |x|^2 |y|^2 / 8.  Inputs are projected onto their subspaces
    first; a projection that moves them beyond tolerance is an error.
    """
    if i == k:
        raise ValidationError("the cross-norm identity needs i != k")
    px = basis.project(x, i, j)
    py = basis.project(y, j, k)
    for label, orig, proj in (("x", x, px), ("y", y, py)):
        drift = norm(orig - proj)
        if drift > tol * max(1.0, norm(orig)):
            raise ValidationError(f"{label} is not in its stated Peirce subspace")
    x_sq, xy, square, cross = _pair_identities(px, py, i, j, basis.frame)
    nx = inner(px, px)
    if square > tol * max(1.0, nx):
        raise ValidationError("square identity x^2 = |x|^2 (c_i + c_j)/2 violated")
    if cross > tol * max(1.0, nx * inner(py, py)):
        raise ValidationError("cross-norm identity |xy|^2 = |x|^2 |y|^2 / 8 violated")
    return x_sq, inner(xy, xy)


def peirce_identity_residuals(frame, n: int, rng: np.random.Generator) -> dict:
    """Largest residuals of the Peirce identities over n random samples.

    A sample is x in E_ij and, when some k differs from i and j, y in E_jk.
    Keys: ``square_identity`` and ``cross_norm_identity`` (see
    :func:`peirce_norm_identities`), and ``multiplication_table``, |xy - P_ik xy|.
    """
    basis = build_peirce_basis(frame)
    r = basis.frame.algebra.rank
    found = {key: [0.0] for key in ("square_identity", "cross_norm_identity", "multiplication_table")}
    for _ in range(n if r >= 2 else 0):
        i, j = sorted(rng.choice(r, size=2, replace=False))
        x = basis.gaussian(i, j, rng)
        ks = [k for k in range(r) if k != i and k != j]
        k = int(rng.choice(ks)) if ks else None
        y = None if k is None else basis.gaussian(j, k, rng)
        _, xy, square, cross = _pair_identities(x, y, i, j, basis.frame)
        found["square_identity"].append(square)
        if y is not None:
            found["cross_norm_identity"].append(cross)
            found["multiplication_table"].append(norm(xy - basis.project(xy, i, k)))
    return {key: float(np.max(values)) for key, values in found.items()}


# ---------------------------------------------------------------------------
# principal minors and generalized powers
# ---------------------------------------------------------------------------


def _minor_rows(frame: JordanFrame, coords: np.ndarray, k: int) -> np.ndarray:
    """Delta_k of each row of an (n, dim) coordinate array, shape (n,).

    Delta_k is the subalgebra determinant of the projection onto the
    subalgebra of c_1 + ... + c_k.  That projection has the subalgebra
    spectrum plus r - k exact zeros, so Delta_k is the product of its k
    eigenvalues of largest absolute value.  Delta_r is the determinant; its
    projection, the identity, is skipped, since the rounded matrix would move
    the last bits.
    """
    if k < len(frame):
        coords = coords @ frame.leading_projector(k).matrix.T
    lam = batch_eigenvalues(frame.algebra, coords)
    order = np.argsort(-np.abs(lam), axis=1, kind="stable")
    return np.take_along_axis(lam, order[:, :k], axis=1).prod(axis=1)


def principal_minors(frame: JordanFrame, coords: np.ndarray) -> np.ndarray:
    """Minors Delta_1 .. Delta_r of each row of an (n, dim) coordinate array, shape (n, r)."""
    return np.stack([_minor_rows(frame, coords, k) for k in range(1, len(frame) + 1)], axis=1)


def principal_minor(x: Element, k: int, frame) -> float:
    """Minor of order k of x: one row of :func:`principal_minors`, computing that order alone."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    if not 1 <= k <= x.algebra.rank:
        raise ValidationError(f"minor order {k} outside 1..{x.algebra.rank}")
    return float(_minor_rows(frame, x.coords[None, :], k)[0])


def batch_generalized_power_log(frame: JordanFrame, coords: np.ndarray, s) -> np.ndarray:
    """log Delta_s of each row of an (n, dim) coordinate array, shape (n,).

    ``s`` is one exponent for every row, or an (n, r) array of one per row.
    log Delta_s(x) = sum_k (s_k - s_{k+1}) log Delta_k(x); needs every Delta_k > 0.
    """
    rank = frame.algebra.rank
    svec = np.asarray(s, dtype=float) if np.ndim(s) == 2 else exponent_vector(s, rank)
    if svec.ndim == 2 and svec.shape != (len(coords), rank):
        raise ValidationError(f"per-row exponents need shape ({len(coords)}, {rank}), got {svec.shape}")
    minors = principal_minors(frame, coords)
    if np.any(minors <= 0.0):
        raise DomainError("generalized power needs all principal minors positive")
    weights = svec.copy()
    weights[..., :-1] -= svec[..., 1:]
    if weights.ndim == 1:
        return np.log(minors) @ weights
    return np.einsum("nk,nk->n", np.log(minors), weights)


def generalized_power_log(x: Element, s, frame) -> float:
    """log Delta_s(x): one row of :func:`batch_generalized_power_log`."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    return float(batch_generalized_power_log(frame, x.coords[None, :], s)[0])


def generalized_power(x: Element, s, frame) -> float:
    """Delta_s(x); reduces to det(x)^p for constant s = (p, ..., p)."""
    return float(np.exp(generalized_power_log(x, s, frame)))
