"""Peirce decomposition, principal minors and generalized power functions.

The generalized powers Delta_s, the principal minors Delta_k among them, are
characters of the triangular group of a frame (Faraut & Korányi, *Analysis on
Symmetric Cones* (1994), ch. VI), and Delta_k(t_x e) = alpha_1 ... alpha_k:
both are read from the pivots alpha of
:func:`~conelab.triangular.batch_triangular_decompose`.  They are defined on
the cone, and a point outside it raises DomainError.  The triangular module
builds on the Peirce basis here, so this one imports it when first called.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Element,
    Endomorphism,
    JordanFrame,
    batch_jordan_product,
    batch_norm,
    identity,
    is_idempotent,
    norm,
    quad_rep,
)
from .errors import ValidationError


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


def _gram_schmidt_rows(candidates: np.ndarray, scale: float, expect: int) -> np.ndarray:
    """Orthonormalize candidate coordinate rows (trace form), the longest remaining one first
    (the lowest index among equals); each row taken is swept out of the remaining candidates."""
    rest = candidates.copy()
    rows = []
    while len(rows) < expect:
        v = rest[np.argmax(np.einsum("ij,ij->i", rest, rest))]
        length = np.sqrt(scale) * np.linalg.norm(v)
        if not length > 1e-8:
            break
        rows.append(v / length)
        rest -= np.outer(rest @ (scale * rows[-1]), rows[-1])
    return np.array(rows) if rows else np.zeros((0, candidates.shape[1]))


def build_peirce_basis(frame) -> PeirceBasis:
    """Split the algebra into the subspaces E_ij determined by a frame; cached on the frame."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    return frame.cached("peirce_basis", lambda: _peirce_basis(frame))


def _peirce_basis(frame: JordanFrame) -> PeirceBasis:
    algebra = frame.algebra
    r = algebra.rank
    scale = algebra.inner_scale
    half = [half_projector(frame, j).matrix for j in range(r)]
    subspaces = {}
    total = 0
    for i in range(r):
        subspaces[(i, i)] = frame[i].coords[None, :] / norm(frame[i])
        total += 1
        for j in range(i + 1, r):
            rows = _gram_schmidt_rows((half[i] @ half[j]).T, scale, algebra.peirce_d)
            if rows.shape[0] != algebra.peirce_d:
                raise ValidationError(
                    f"subspace ({i},{j}) has dimension {rows.shape[0]}, "
                    f"expected {algebra.peirce_d}"
                )
            subspaces[(i, j)] = rows
            total += algebra.peirce_d
    if total != algebra.dim:
        raise ValidationError("Peirce subspace dimensions do not sum to dim")
    for rows in subspaces.values():
        rows.flags.writeable = False
    return PeirceBasis(frame, subspaces)


def peirce_identity_residuals(frame, n: int, rng: np.random.Generator) -> dict:
    """Largest residuals of the Peirce identities over n random samples.

    A sample is x in E_ij and, when some k differs from i and j, y in E_jk,
    each with standard Gaussian coordinates in the orthonormal basis of its
    subspace.  Keys: ``square_identity`` |x^2 - |x|^2 (c_i + c_j)/2|,
    ``cross_norm_identity`` ||xy|^2 - |x|^2 |y|^2 / 8| and
    ``multiplication_table`` |xy - P_ik xy|, with P_ik the projection onto E_ik.
    The samples are drawn one after another (i and j, x, k, y); the identities
    are then checked on the stacked rows, the projections grouped by (i, k).
    """
    basis = build_peirce_basis(frame)
    algebra, r, d = basis.frame.algebra, len(basis.frame), basis.frame.algebra.peirce_d
    x, ij, y, ik = [], [], [], []
    for _ in range(n if r >= 2 else 0):
        i, j = sorted(rng.choice(r, size=2, replace=False))
        x.append(rng.standard_normal(d) @ basis.subspaces[(i, j)])
        ij.append((i, j))
        ks = [k for k in range(r) if k != i and k != j]
        if ks:  # so from rank 3 on every sample has a y, and below none has
            k = int(rng.choice(ks))
            y.append(rng.standard_normal(d) @ basis.subspaces[(min(j, k), max(j, k))])
            ik.append((min(i, k), max(i, k)))
    x, y = np.reshape(x, (-1, algebra.dim)), np.reshape(y, (-1, algebra.dim))
    ij, ik_rows = np.array(ij, dtype=int).reshape(-1, 2), np.array(ik, dtype=int).reshape(-1, 2)

    def inner(a, b):
        return algebra.inner_scale * np.sum(a * b, axis=1)

    nx = inner(x, x)
    x_sq = batch_jordan_product(algebra, x, x)
    xy = batch_jordan_product(algebra, x[: len(y)], y)
    outside = xy.copy()
    for i, k in set(ik):  # a set, not np.unique, which imports numpy.ma (about 1 MB)
        at = (ik_rows[:, 0] == i) & (ik_rows[:, 1] == k)
        outside[at] -= xy[at] @ basis.projector_matrix(i, k).T
    found = {
        "square_identity": batch_norm(algebra, x_sq - 0.5 * nx[:, None] * basis.frame.members[ij].sum(axis=1)),
        "cross_norm_identity": np.abs(inner(xy, xy) - nx[: len(y)] * inner(y, y) / 8.0),
        "multiplication_table": batch_norm(algebra, outside),
    }
    # np.max keeps a NaN, so it fails every gate
    return {key: float(np.max(values, initial=0.0)) for key, values in found.items()}


# ---------------------------------------------------------------------------
# principal minors and generalized powers
# ---------------------------------------------------------------------------


def _pivots(frame: JordanFrame, coords: np.ndarray) -> np.ndarray:
    """The (n, r) diagonal alpha of t_x for each row x; DomainError when a row leaves the cone."""
    from .triangular import batch_triangular_decompose  # triangular imports this module

    return batch_triangular_decompose(coords, frame).diagonal


def principal_minors(frame: JordanFrame, coords: np.ndarray) -> np.ndarray:
    """Minors Delta_1 .. Delta_r of each row of an (n, dim) coordinate array, shape (n, r).

    Delta_k(t_x e) = alpha_1 ... alpha_k, the pivots of the triangular
    decomposition.  Defined on the cone; DomainError for a row outside it.
    """
    return np.cumprod(_pivots(frame, coords), axis=1)


def principal_minor(x: Element, k: int, frame) -> float:
    """Minor of order k of a cone point x: one entry of :func:`principal_minors`.
    DomainError when x is outside the cone."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    if not 1 <= k <= x.algebra.rank:
        raise ValidationError(f"minor order {k} outside 1..{x.algebra.rank}")
    return float(principal_minors(frame, x.coords[None, :])[0, k - 1])


def batch_generalized_power_log(frame: JordanFrame, coords: np.ndarray, s) -> np.ndarray:
    """log Delta_s of each row of an (n, dim) coordinate array, shape (n,).

    ``s`` is one exponent for every row, or an (n, r) array of one per row.
    log Delta_s(t_x e) = sum_k s_k log alpha_k.  Defined on the cone;
    DomainError for a row outside it.
    """
    rank = frame.algebra.rank
    svec = np.asarray(s, dtype=float) if np.ndim(s) == 2 else exponent_vector(s, rank)
    if svec.ndim == 2 and svec.shape != (len(coords), rank):
        raise ValidationError(f"per-row exponents need shape ({len(coords)}, {rank}), got {svec.shape}")
    log_alpha = np.log(_pivots(frame, coords))
    if svec.ndim == 1:
        return log_alpha @ svec
    return np.einsum("nk,nk->n", log_alpha, svec)


def generalized_power_log(x: Element, s, frame) -> float:
    """log Delta_s(x) of a cone point x: one row of :func:`batch_generalized_power_log`.
    DomainError when x is outside the cone."""
    if not isinstance(frame, JordanFrame):
        frame = JordanFrame(frame)
    return float(batch_generalized_power_log(frame, x.coords[None, :], s)[0])
