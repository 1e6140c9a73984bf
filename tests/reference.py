"""One-point references the tests hold the batched library code to.

conelab computes each operation on (n, dim) coordinate batches.  The
one-point forms below are written from their definitions on single
Elements, so a test can compare a batch row by row with an independent
path: the quotient map (x, y) -> (g(x+y) x, x+y), w(x) y, the Peirce
projections and norm identities (Faraut & Korányi, *Analysis on Symmetric
Cones*, ch. IV), the generalized power Delta_s (ch. VI) and the spectral
power x^alpha.  The frame maps of the triangular group, S_j, and the leading
projections are built here from ``quad_rep`` and ``peirce_projectors`` of
sums of frame members, apart from the Peirce basis the library reads S_j
from.  The principal minors are read from the eigenvalues of the leading
projections of x, apart from the triangular pivots the library reads them
from.  ``peirce_identity_residuals_per_sample`` is the
sample-by-sample form of :func:`conelab.peirce.peirce_identity_residuals`
and makes the same generator calls in the same order.
"""

from dataclasses import dataclass

import numpy as np

from conelab import algebra as alg
from conelab import peirce
from conelab.algorithms import divide
from conelab.distributions import in_domain_D
from conelab.errors import DomainError


@dataclass(frozen=True, eq=False)
class QuotientPair:
    """The transformed pair (u, v) with u in the domain D and v in the cone."""

    u: alg.Element
    v: alg.Element

    def __post_init__(self) -> None:
        if not in_domain_D(self.u):
            raise DomainError("quotient component is outside the domain D")
        alg.require_in_cone(self.v, "sum component")


def quotient_map(x, y, w) -> QuotientPair:
    """(x, y) -> (g(x+y) x, x+y); both arguments must lie in the cone."""
    alg.require_in_cone(x, "first summand")
    alg.require_in_cone(y, "second summand")
    v = x + y
    return QuotientPair(divide(w, v, x), v)


def multiply(w, x, y):
    """w(x) y as a one-row apply_batch; multiply(w, x, e) = x."""
    return alg.Element(y.algebra, w.apply_batch(x.coords[None, :], y.coords[None, :])[0])


def element_power(x, alpha: float):
    """x^alpha = sum_i lambda_i^alpha c_i over the spectral decomposition of x."""
    sd = alg.spectral_decompose(x)
    out = alg.zero(x.algebra)
    for lam, c in zip(sd.eigenvalues, sd.frame):
        out = out + float(lam) ** alpha * c
    return out


def generalized_power(x, s, frame) -> float:
    """Delta_s(x); reduces to det(x)^p for constant s = (p, ..., p)."""
    return float(np.exp(peirce.generalized_power_log(x, s, frame)))


def peirce_project(x, c, eigenvalue: float):
    """Component of x in the L(c)-eigenspace for eigenvalue 0, 1/2 or 1."""
    return peirce.peirce_projectors(c)[float(eigenvalue)].apply(x)


def project(basis, x, i: int, j: int):
    """Component of x in the subspace E_ij of a Peirce basis."""
    return alg.Element(x.algebra, basis.projector_matrix(i, j) @ x.coords)


def gaussian(basis, i: int, j: int, rng):
    """Element of E_ij with standard Gaussian coordinates in its orthonormal basis."""
    rows = basis.subspaces[(min(i, j), max(i, j))]
    return alg.Element(basis.frame.algebra, rng.standard_normal(rows.shape[0]) @ rows)


def pair_identities(x, y, i: int, j: int, frame):
    """(x^2, xy, residual of x^2 = |x|^2 (c_i + c_j)/2, residual of |xy|^2 = |x|^2 |y|^2 / 8).

    x lies in E_ij and y in E_jk with k != i, or y is None and so are the entries it feeds.
    """
    x_sq = alg.jordan_product(x, x)
    nx = alg.inner(x, x)
    square = alg.norm(x_sq - 0.5 * nx * (frame[i] + frame[j]))
    if y is None:
        return x_sq, None, square, None
    xy = alg.jordan_product(x, y)
    return x_sq, xy, square, abs(alg.inner(xy, xy) - nx * alg.inner(y, y) / 8.0)


def peirce_identity_residuals_per_sample(frame, n: int, rng) -> dict:
    """The residuals of :func:`conelab.peirce.peirce_identity_residuals`, one Element sample at a time."""
    basis = peirce.build_peirce_basis(frame)
    r = basis.frame.algebra.rank
    found = {key: [0.0] for key in ("square_identity", "cross_norm_identity", "multiplication_table")}
    for _ in range(n if r >= 2 else 0):
        i, j = sorted(rng.choice(r, size=2, replace=False))
        x = gaussian(basis, i, j, rng)
        ks = [k for k in range(r) if k != i and k != j]
        k = int(rng.choice(ks)) if ks else None
        y = None if k is None else gaussian(basis, j, k, rng)
        _, xy, square, cross = pair_identities(x, y, i, j, basis.frame)
        found["square_identity"].append(square)
        if y is not None:
            found["cross_norm_identity"].append(cross)
            found["multiplication_table"].append(alg.norm(xy - project(basis, xy, i, k)))
    return {key: float(np.max(values)) for key, values in found.items()}


def member_sum(frame, start: int, stop: int):
    """c_start + ... + c_(stop-1), an idempotent."""
    out = alg.zero(frame.algebra)
    for c in frame.elements[start:stop]:
        out = out + c
    return out


def leading_projector(frame, k: int):
    """P(c_1 + ... + c_k): the projection onto the subalgebra of the first k frame members."""
    return alg.quad_rep(member_sum(frame, 0, k))


def principal_minors(frame, coords) -> np.ndarray:
    """Delta_1 .. Delta_r of each row of an (n, dim) coordinate array, shape (n, r).

    P(c_1 + ... + c_k) x has the spectrum of x's minor in the subalgebra of
    c_1 + ... + c_k plus r - k zeros, so Delta_k is the product of its k
    eigenvalues of largest absolute value.
    """
    minors = []
    for k in range(1, len(frame) + 1):
        lam = alg.batch_eigenvalues(frame.algebra, coords @ leading_projector(frame, k).matrix.T)
        order = np.argsort(-np.abs(lam), axis=1, kind="stable")
        minors.append(np.take_along_axis(lam, order[:, :k], axis=1).prod(axis=1))
    return np.stack(minors, axis=1)


def strict_upper_projector(frame, j: int):
    """S_j, the projection onto the span of E_jk for k > j: the half space of c_j
    intersected with the eigenvalue-1 and half spaces of c_(j+1) + ... + c_r."""
    tail = member_sum(frame, j + 1, len(frame))
    half_j = peirce.peirce_projectors(frame[j])[0.5].matrix
    half_tail_one = alg.quad_rep(tail).matrix + peirce.peirce_projectors(tail)[0.5].matrix
    return alg.Endomorphism(frame.algebra, half_j @ half_tail_one)
