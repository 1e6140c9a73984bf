"""Euclidean Jordan algebras: real symmetric, complex Hermitian, and Lorentz kinds.

Coordinate conventions
----------------------
Elements are stored as real coordinate vectors in a fixed basis, so reports
built from coordinates are byte-stable:

* ``sym_real(r)``: diagonal units ``E_ii`` for i = 1..r first, then the
  off-diagonal units ``(E_ij + E_ji)/sqrt(2)`` for i < j in row-major order.
* ``herm_complex(r)``: diagonal units first, then for each pair i < j the
  real unit ``(E_ij + E_ji)/sqrt(2)`` followed by the imaginary unit
  ``(i*E_ij - i*E_ji)/sqrt(2)``.
* ``lorentz(n)``: the natural coordinates of R^(n+1); the Jordan product is
  (x, y) -> (sum_i x_i y_i, x_0*y_1 + y_0*x_1, ..., x_0*y_n + y_0*x_n).

The matrix bases are orthonormal for the Frobenius inner product, which
coincides with the trace form <x, y> = tr(xy).  On the Lorentz kind the
coordinates are the natural ones, and the trace form equals twice the
coordinate dot product; :func:`inner` always returns the trace form, since
that is the normalization under which the Peirce norm identities and the
Gamma-function formulas hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AlgebraMismatchError,
    DomainError,
    SingularElementError,
    ValidationError,
)

SYM_REAL = "sym_real"
HERM_COMPLEX = "herm_complex"
LORENTZ = "lorentz"

_MAX_RANK = {SYM_REAL: 8, HERM_COMPLEX: 6}
_MAX_LORENTZ_N = 16

#: relative threshold below which an eigenvalue counts as zero for inversion
SINGULAR_REL_TOL = 1e-12
#: absolute tolerance for idempotency / frame orthogonality checks
IDEMPOTENT_TOL = 1e-9


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which simple algebra: kind, rank r, Peirce constant d, dimension."""

    kind: str
    rank: int
    peirce_d: int
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in (SYM_REAL, HERM_COMPLEX, LORENTZ):
            raise ValidationError(f"unknown algebra kind {self.kind!r}")
        if self.rank < 1:
            raise ValidationError("rank must be >= 1")
        if self.peirce_d < 0:
            raise ValidationError("Peirce constant must be >= 0")
        expected = self.rank + self.peirce_d * self.rank * (self.rank - 1) // 2
        if self.dim != expected:
            raise ValidationError(
                f"dim {self.dim} inconsistent with rank {self.rank} and "
                f"Peirce constant {self.peirce_d} (expected {expected})"
            )
        if self.kind == LORENTZ:
            if self.rank != 2:
                raise ValidationError("Lorentz kind has rank 2")
            if self.peirce_d < 1 or self.peirce_d + 1 > _MAX_LORENTZ_N:
                raise ValidationError(f"Lorentz kind supports 2 <= n <= {_MAX_LORENTZ_N}")
        elif self.rank > _MAX_RANK[self.kind]:
            raise ValidationError(f"{self.kind} supports rank <= {_MAX_RANK[self.kind]}")

    @property
    def is_matrix_kind(self) -> bool:
        return self.kind in (SYM_REAL, HERM_COMPLEX)

    @property
    def inner_scale(self) -> float:
        """Trace form = inner_scale * (coordinate dot product)."""
        return 2.0 if self.kind == LORENTZ else 1.0

    @property
    def name(self) -> str:
        if self.kind == LORENTZ:
            return f"lorentz({self.peirce_d + 1})"
        return f"{self.kind}({self.rank})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def sym_real(r: int) -> AlgebraDescriptor:
    """Real symmetric r x r matrices (d = 1, dim = r(r+1)/2)."""
    return AlgebraDescriptor(SYM_REAL, r, 1, r + r * (r - 1) // 2)


def herm_complex(r: int) -> AlgebraDescriptor:
    """Complex Hermitian r x r matrices (d = 2, dim = r^2)."""
    return AlgebraDescriptor(HERM_COMPLEX, r, 2, r + r * (r - 1))


def lorentz(n: int) -> AlgebraDescriptor:
    """The Lorentz algebra on R^(n+1) (rank 2, d = n - 1)."""
    if n < 2:
        raise ValidationError("Lorentz kind requires n >= 2")
    return AlgebraDescriptor(LORENTZ, 2, n - 1, n + 1)


def parse_algebra(text: str) -> AlgebraDescriptor:
    """Parse "sym_real(3)", "herm_complex(2)" or "lorentz(4)"."""
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise ValidationError(f"cannot parse algebra spec {text!r}")
    base, arg = text[:-1].split("(", 1)
    try:
        value = int(arg)
    except ValueError as exc:
        raise ValidationError(f"cannot parse algebra spec {text!r}") from exc
    if base == SYM_REAL:
        return sym_real(value)
    if base == HERM_COMPLEX:
        return herm_complex(value)
    if base == LORENTZ:
        return lorentz(value)
    raise ValidationError(f"unknown algebra kind {base!r}")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the algebra in the fixed coordinate basis. Immutable."""

    algebra: AlgebraDescriptor
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=float)
        if arr.shape != (self.algebra.dim,):
            raise ValidationError(
                f"coords shape {arr.shape} does not match dim {self.algebra.dim}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    def _check_same(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"operands from different algebras: {self.algebra.name} vs {other.algebra.name}"
            )

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coords)

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Element":
        return Element(self.algebra, self.coords / float(scalar))

    def to_matrix(self) -> np.ndarray:
        """Matrix representation (matrix kinds only)."""
        if not self.algebra.is_matrix_kind:
            raise ValidationError("to_matrix is defined for matrix kinds only")
        return coords_to_mats(self.algebra, self.coords[None, :])[0]


@dataclass(frozen=True, eq=False)
class Points:
    """A batch of points of one algebra: one read-only (n, dim) array of coordinate rows.

    The rows are checked once, here: two dimensions, ``dim`` columns, finite
    floats.  ``len`` counts the rows; an integer index gives that row as an
    :class:`Element`, a slice or an index array gives another batch, and
    iteration yields the rows as Elements one at a time, each holding a
    read-only view of its row.
    """

    algebra: AlgebraDescriptor
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.algebra.dim:
            raise ValidationError(f"coords shape {arr.shape} is not (n, {self.algebra.dim})")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("coordinates must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, index):
        rows = self.coords[index]
        return Element(self.algebra, rows) if rows.ndim == 1 else Points(self.algebra, rows)

    def __iter__(self):
        # The rows are checked and read-only already, so each Element takes its
        # row as it is, a view that keeps the batch alive, without the
        # constructor's copy and checks (a third of the cost per row).
        algebra = self.algebra
        for row in self.coords:
            element = object.__new__(Element)
            object.__setattr__(element, "algebra", algebra)
            object.__setattr__(element, "coords", row)
            yield element


def identity(algebra: AlgebraDescriptor) -> Element:
    """The neutral element e."""
    c = np.zeros(algebra.dim)
    if algebra.kind == LORENTZ:
        c[0] = 1.0
    else:
        c[: algebra.rank] = 1.0
    return Element(algebra, c)


def zero(algebra: AlgebraDescriptor) -> Element:
    return Element(algebra, np.zeros(algebra.dim))


def from_matrix(algebra: AlgebraDescriptor, mat: np.ndarray) -> Element:
    """Element from an r x r symmetric / Hermitian matrix."""
    if not algebra.is_matrix_kind:
        raise ValidationError("from_matrix is defined for matrix kinds only")
    mat = np.asarray(mat)
    if mat.shape != (algebra.rank, algebra.rank):
        raise ValidationError(f"matrix shape {mat.shape} does not match rank {algebra.rank}")
    herm_defect = np.max(np.abs(mat - mat.conj().T))
    if herm_defect > 1e-10 * max(1.0, np.max(np.abs(mat))):
        raise ValidationError("matrix is not symmetric/Hermitian")
    return Element(algebra, mats_to_coords(algebra, mat[None, :, :])[0])


def _basis_tensor(algebra: AlgebraDescriptor) -> np.ndarray:
    """Stack of basis matrices, shape (dim, r, r); complex for herm_complex."""
    r = algebra.rank
    dtype = complex if algebra.kind == HERM_COMPLEX else float
    mats = np.zeros((algebra.dim, r, r), dtype=dtype)
    for i in range(r):
        mats[i, i, i] = 1.0
    idx = r
    s = 1.0 / np.sqrt(2.0)
    for i in range(r):
        for j in range(i + 1, r):
            mats[idx, i, j] = s
            mats[idx, j, i] = s
            idx += 1
            if algebra.kind == HERM_COMPLEX:
                mats[idx, i, j] = 1j * s
                mats[idx, j, i] = -1j * s
                idx += 1
    return mats


@lru_cache(maxsize=None)
def _basis_matrix(algebra: AlgebraDescriptor) -> np.ndarray:
    """The basis matrices as the rows of one real (dim, r*r) matrix; on herm_complex each row
    is viewed as float, real and imaginary parts interleaved, giving (dim, 2*r*r)."""
    return _basis_tensor(algebra).reshape(algebra.dim, -1).view(float)


def coords_to_mats(algebra: AlgebraDescriptor, coords: np.ndarray) -> np.ndarray:
    """Batch map (..., dim) coordinate rows to (..., r, r) matrices, one real matrix product."""
    flat = coords.reshape(-1, algebra.dim) @ _basis_matrix(algebra)  # one 2-D product for any stack
    if algebra.kind == HERM_COMPLEX:
        flat = flat.view(complex)
    return flat.reshape(coords.shape[:-1] + (algebra.rank, algebra.rank))


def mats_to_coords(algebra: AlgebraDescriptor, mats: np.ndarray) -> np.ndarray:
    """Batch inverse of :func:`coords_to_mats`: Frobenius projections Re tr(B_k^H M), one real
    matrix product.  Takes real input; a non-Hermitian M gives its Hermitian part's coordinates."""
    basis = _basis_matrix(algebra)
    if algebra.kind == HERM_COMPLEX:
        mats = np.ascontiguousarray(mats, dtype=complex).view(float)
    return (mats.reshape(-1, basis.shape[1]) @ basis.T).reshape(mats.shape[:-2] + (algebra.dim,))


# ---------------------------------------------------------------------------
# the product and inner product
# ---------------------------------------------------------------------------


def batch_jordan_product(algebra: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jordan product on (..., n, dim) coordinate batches, broadcast like numpy arrays
    (a batch of one row acts on every row)."""
    if algebra.is_matrix_kind:
        ma = coords_to_mats(algebra, a)
        mb = coords_to_mats(algebra, b)
        return mats_to_coords(algebra, 0.5 * (ma @ mb + mb @ ma))
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = np.sum(a * b, axis=-1)
    out[..., 1:] = a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
    return out


def jordan_product(x: Element, y: Element) -> Element:
    """The bilinear commutative product xy."""
    x._check_same(y)
    c = batch_jordan_product(x.algebra, x.coords[None, :], y.coords[None, :])[0]
    return Element(x.algebra, c)


def inner(x: Element, y: Element) -> float:
    """Trace-form inner product <x, y> = tr(xy)."""
    x._check_same(y)
    return x.algebra.inner_scale * float(np.dot(x.coords, y.coords))


def norm(x: Element) -> float:
    return float(np.sqrt(x.algebra.inner_scale) * np.linalg.norm(x.coords))


def batch_norm(algebra: AlgebraDescriptor, coords: np.ndarray) -> np.ndarray:
    """Trace-form norms of (n, dim) coordinate rows, shape (n,)."""
    return np.sqrt(algebra.inner_scale) * np.linalg.norm(coords, axis=1)


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Endomorphism:
    """A linear map on the algebra, as a dim x dim real matrix on coordinates."""

    algebra: AlgebraDescriptor
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)
        n = self.algebra.dim
        if mat.shape != (n, n):
            raise ValidationError(f"matrix shape {mat.shape} does not match dim {n}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, algebra: AlgebraDescriptor) -> "Endomorphism":
        return cls(algebra, np.eye(algebra.dim))

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("endomorphism and element from different algebras")
        return Element(self.algebra, self.matrix @ x.coords)

    def apply_batch(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self.matrix.T

    def __matmul__(self, other: "Endomorphism") -> "Endomorphism":
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("endomorphisms from different algebras")
        return Endomorphism(self.algebra, self.matrix @ other.matrix)

    def adjoint(self) -> "Endomorphism":
        # the coordinate metric is a scalar multiple of the identity for all
        # supported kinds, so the trace-form adjoint is the plain transpose
        return Endomorphism(self.algebra, self.matrix.T)

    def ddet(self) -> float:
        """Determinant in the space of endomorphisms."""
        return float(np.linalg.det(self.matrix))


def batch_quad_rep(
    algebra: AlgebraDescriptor, a: np.ndarray, a_sq: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Rows of P(a_i) y_i = 2 a(a y) - a^2 y, given the rows of a and of a^2."""
    ay = batch_jordan_product(algebra, a, y)
    return 2.0 * batch_jordan_product(algebra, a, ay) - batch_jordan_product(algebra, a_sq, y)


def lmap(x: Element) -> Endomorphism:
    """Left multiplication L(x): y -> xy."""
    algebra = x.algebra
    cols = batch_jordan_product(algebra, x.coords[None, :], np.eye(algebra.dim))
    return Endomorphism(algebra, cols.T)


def quad_rep(x: Element) -> Endomorphism:
    """Quadratic representation P(x) = 2 L(x)^2 - L(x^2)."""
    lx = lmap(x).matrix
    lx2 = lmap(jordan_product(x, x)).matrix
    return Endomorphism(x.algebra, 2.0 * lx @ lx - lx2)


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Jordan frame (c_1..c_r) with eigenvalues sorted descending."""

    frame: tuple
    eigenvalues: np.ndarray

    def reconstruct(self) -> Element:
        algebra = self.frame[0].algebra
        coords = np.zeros(algebra.dim)
        for lam, c in zip(self.eigenvalues, self.frame):
            coords = coords + lam * c.coords
        return Element(algebra, coords)


_LORENTZ_SIGNS = np.array([1.0, -1.0])


def _lorentz_radius(coords: np.ndarray) -> np.ndarray:
    """Euclidean length of the spatial part of each Lorentz row."""
    # a dot product per row: one row gives the same bits as np.linalg.norm(tail)
    tail = coords[:, 1:]
    return np.sqrt((tail[:, None, :] @ tail[:, :, None])[:, 0, 0])


def _lorentz_idempotents(coords: np.ndarray, radius: np.ndarray) -> tuple:
    """Rows of the spectral idempotents (1, +u)/2 and (1, -u)/2 of Lorentz rows."""
    tail = coords[:, 1:]
    unit = np.zeros_like(tail)
    unit[:, 0] = 1.0
    away = radius >= 1e-300
    unit[away] = tail[away] / radius[away, None]
    half = np.full((len(coords), 1), 0.5)
    return np.concatenate((half, 0.5 * unit), axis=1), np.concatenate((half, -0.5 * unit), axis=1)


def batch_eigenvalues(algebra: AlgebraDescriptor, coords: np.ndarray) -> np.ndarray:
    """Spectral eigenvalues of (n, dim) coordinate rows, shape (n, r), sorted descending.

    On the Lorentz kind they are x_0 +/- |(x_1, ..., x_n)|.
    """
    if algebra.kind == LORENTZ:
        return coords[:, :1] + _lorentz_radius(coords)[:, None] * _LORENTZ_SIGNS
    return np.linalg.eigvalsh(coords_to_mats(algebra, coords))[:, ::-1]


def batch_spectrum(algebra: AlgebraDescriptor, coords: np.ndarray) -> tuple:
    """Eigenvalues (n, r) of coordinate rows and the map back from values at them.

    The map takes an (n, r) array f, aligned with the eigenvalues, to the rows
    of sum_i f_i c_i over each row's spectral idempotents c_i.  On the
    Lorentz kind the idempotents are (1, +/-u)/2, with u the unit direction of
    the spatial part (the first axis when that part vanishes).  Matrix kinds
    list their eigenvalues in ascending order here.  The map of a one-row
    batch takes f of any number of rows.
    """
    if algebra.kind == LORENTZ:
        plus, minus = _lorentz_idempotents(coords, _lorentz_radius(coords))
        return batch_eigenvalues(algebra, coords), lambda f: f[:, :1] * plus + f[:, 1:] * minus
    lam, vecs = np.linalg.eigh(coords_to_mats(algebra, coords))
    vecs_h = np.conj(np.transpose(vecs, (0, 2, 1)))
    return lam, lambda f: mats_to_coords(algebra, (vecs * f[:, None, :]) @ vecs_h)


def batch_spectral_map(algebra: AlgebraDescriptor, coords: np.ndarray, fn) -> np.ndarray:
    """Rows of sum_i fn(lambda_i) c_i over the spectral decomposition of each row.

    ``fn`` maps the (n, r) eigenvalue array elementwise.
    """
    lam, rebuild = batch_spectrum(algebra, coords)
    return rebuild(fn(lam))


def batch_power_map(algebra: AlgebraDescriptor, coords: np.ndarray):
    """The map p -> rows of x^p, from one spectral decomposition of the cone points x.

    Each power is rebuilt from the eigenvalues on first request and kept,
    read-only.  DomainError when a row has a nonpositive eigenvalue.
    """
    lam, rebuild = batch_spectrum(algebra, coords)
    if np.any(lam <= 0):
        raise DomainError("batch contains points outside the cone")
    built = {}

    def power(p: float) -> np.ndarray:
        if p not in built:
            built[p] = rows = rebuild(lam**p)
            rows.flags.writeable = False
        return built[p]

    return power


def eigenvalues(x: Element) -> np.ndarray:
    """Spectral eigenvalues, sorted descending."""
    return batch_eigenvalues(x.algebra, x.coords[None, :])[0]


def spectral_decompose(x: Element) -> SpectralDecomposition:
    """Write x = sum_i lambda_i c_i over a complete orthogonal idempotent system.

    The one-row :func:`batch_spectrum`: c_i is the map back from the indicator
    of lambda_i.  The eigenvalues descend: the matrix kinds' ascending list is
    reversed, the Lorentz kind's is descending already.
    """
    algebra = x.algebra
    lam, rebuild = batch_spectrum(algebra, x.coords[None, :])
    order = slice(None, None, -1) if algebra.is_matrix_kind else slice(None)
    members = rebuild(np.eye(algebra.rank)[order])
    return SpectralDecomposition(tuple(Element(algebra, c) for c in members), lam[0, order])


def _spectral_map(x: Element, fn) -> Element:
    """Apply a scalar function to the spectrum of x."""
    return Element(x.algebra, batch_spectral_map(x.algebra, x.coords[None, :], fn)[0])


def trace(x: Element) -> float:
    """Sum of eigenvalues; equals <x, e> in the trace form."""
    return inner(x, identity(x.algebra))


def determinant(x: Element) -> float:
    """Product of eigenvalues."""
    return float(np.prod(eigenvalues(x)))


def inverse(x: Element) -> Element:
    """The Jordan inverse; requires all eigenvalues away from zero."""
    lam = eigenvalues(x)
    lam_abs = np.abs(lam)
    if lam_abs.min() <= SINGULAR_REL_TOL * max(lam_abs.max(), 1e-300):
        raise SingularElementError(
            f"element is numerically singular (|lambda|_min = {lam_abs.min():.3e})"
        )
    return _spectral_map(x, lambda t: 1.0 / t)


def in_cone(x: Element) -> bool:
    """True when every eigenvalue is positive."""
    return bool(eigenvalues(x).min() > 0.0)


def require_in_cone(x: Element, what: str = "argument") -> None:
    if not in_cone(x):
        raise DomainError(f"{what} is not in the open cone (nonpositive eigenvalue)")


# ---------------------------------------------------------------------------
# idempotents and frames
# ---------------------------------------------------------------------------


def is_idempotent(c: Element, tol: float = IDEMPOTENT_TOL) -> bool:
    defect = norm(jordan_product(c, c) - c)
    return defect <= tol and norm(c) > tol


class JordanFrame:
    """A complete system of primitive orthogonal idempotents, in a fixed order.

    Hashable by identity.  ``members`` holds the member coordinates as one
    read-only (r, dim) array.  Maps that depend on the frame alone (the
    Peirce half spaces and basis, and the rows, L(c_j) and box tensors of the
    triangular group) are built on first use and kept for the frame's lifetime.
    """

    def __init__(self, elements, validate: bool = True, tol: float = IDEMPOTENT_TOL):
        elements = tuple(elements)
        if not elements:
            raise ValidationError("empty frame")
        algebra = elements[0].algebra
        if len(elements) != algebra.rank:
            raise ValidationError(
                f"frame has {len(elements)} members, rank is {algebra.rank}"
            )
        if validate:
            total = zero(algebra)
            for i, c in enumerate(elements):
                if c.algebra != algebra:
                    raise AlgebraMismatchError("frame members from different algebras")
                if not is_idempotent(c, tol):
                    raise ValidationError(f"frame member {i} is not idempotent")
                if abs(trace(c) - 1.0) > 1e-6:
                    raise ValidationError(f"frame member {i} is not primitive")
                total = total + c
            for i in range(len(elements)):
                for j in range(i + 1, len(elements)):
                    if norm(jordan_product(elements[i], elements[j])) > tol:
                        raise ValidationError(f"frame members {i}, {j} are not orthogonal")
            if norm(total - identity(algebra)) > tol * algebra.rank:
                raise ValidationError("frame members do not sum to the identity")
        self.elements = elements
        self.algebra = algebra
        self.members = np.stack([c.coords for c in elements])
        self.members.flags.writeable = False
        self._cache = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def cached(self, key, build):
        """The frame-only value stored under ``key``, computed by ``build()`` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


@lru_cache(maxsize=None)
def standard_frame(algebra: AlgebraDescriptor) -> JordanFrame:
    """The canonical frame: diagonal units, or (1, +/-u)/2 with u = first axis."""
    if algebra.kind == LORENTZ:
        plus = np.zeros(algebra.dim)
        minus = np.zeros(algebra.dim)
        plus[0] = minus[0] = 0.5
        plus[1] = 0.5
        minus[1] = -0.5
        members = (Element(algebra, plus), Element(algebra, minus))
    else:
        members = []
        for i in range(algebra.rank):
            c = np.zeros(algebra.dim)
            c[i] = 1.0
            members.append(Element(algebra, c))
        members = tuple(members)
    return JordanFrame(members, validate=False)


# ---------------------------------------------------------------------------
# randomness (all draws flow through an explicitly passed generator)
# ---------------------------------------------------------------------------


def _haar_special_orthogonal(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar-random rotations in SO(n), shape (count, n, n): QR of Gaussian
    matrices with the signs of diag(R) moved into Q (Mezzadri 2007), det fixed to +1."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] = -q[flip, :, 0]
    return q


def _haar_unitary(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar-random unitary matrices, shape (count, n, n)."""
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _random_k_images(algebra: AlgebraDescriptor, coords: np.ndarray, rng, count: int) -> np.ndarray:
    """Rows k x_i for ``count`` Haar-random points k of K, one for all rows or one per row.

    Matrix kinds conjugate by orthogonal or unitary matrices; the Lorentz kind
    rotates the spatial part and keeps x_0.
    """
    if algebra.kind == LORENTZ:
        rot = _haar_special_orthogonal(algebra.dim - 1, rng, count)
        return np.concatenate((coords[:, :1], (rot @ coords[:, 1:, None])[:, :, 0]), axis=1)
    q = (_haar_special_orthogonal if algebra.kind == SYM_REAL else _haar_unitary)(algebra.rank, rng, count)
    return mats_to_coords(algebra, q @ coords_to_mats(algebra, coords) @ np.conj(np.swapaxes(q, 1, 2)))


def random_automorphism_k(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Endomorphism:
    """A random cone automorphism fixing e (a point of the compact group K)."""
    return Endomorphism(algebra, _random_k_images(algebra, np.eye(algebra.dim), rng, 1).T)


def apply_random_k(algebra: AlgebraDescriptor, coords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rows k_i x_i of an (n, dim) array, one Haar-random k_i in K per row, from one batched QR."""
    return _random_k_images(algebra, coords, rng, len(coords))


def _place_spectra(algebra: AlgebraDescriptor, lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rows k_i(sum_j lam_ij c_j) over the standard frame, k_i Haar-random in K."""
    return apply_random_k(algebra, lam @ standard_frame(algebra).members, rng)


def random_cone_points(
    algebra: AlgebraDescriptor, n: int, rng: np.random.Generator, low=0.1, high=10.0
) -> np.ndarray:
    """(n, dim) cone points with log-uniform spectra in [low, high] on Haar-random frames.

    The generator fills the (n, rank) spectra first, then the n frames; so
    :func:`random_cone_element` is the one-row call.
    """
    if low <= 0:
        raise DomainError("cone elements need a positive spectrum")
    lam = np.exp(rng.uniform(np.log(low), np.log(high), size=(n, algebra.rank)))
    return _place_spectra(algebra, lam, rng)


def random_element(algebra: AlgebraDescriptor, rng: np.random.Generator, spectrum_spec=None) -> Element:
    """Random element, deterministic under the generator state.

    ``spectrum_spec`` selects the law:

    * ``None``: standard normal coordinates (not confined to the cone);
    * ``(lo, hi)``: eigenvalues drawn iid uniformly from [lo, hi], placed on
      a uniformly random frame;
    * an explicit sequence of ``rank`` eigenvalues: placed on a random frame.
    """
    if spectrum_spec is None:
        return Element(algebra, rng.standard_normal(algebra.dim))
    if isinstance(spectrum_spec, tuple) and len(spectrum_spec) == 2:
        lam = rng.uniform(*spectrum_spec, size=(1, algebra.rank))
    else:
        lam = np.asarray(spectrum_spec, dtype=float)
        if lam.shape != (algebra.rank,):
            raise ValidationError(
                f"spectrum has {lam.shape} entries, rank is {algebra.rank}"
            )
    return Element(algebra, _place_spectra(algebra, np.reshape(lam, (1, -1)), rng)[0])


def random_cone_element(
    algebra: AlgebraDescriptor, rng: np.random.Generator, low: float = 0.1, high: float = 10.0
) -> Element:
    """Random point of the open cone with spectrum in [low, high]: one row of :func:`random_cone_points`."""
    return Element(algebra, random_cone_points(algebra, 1, rng, low, high)[0])


def axiom_residuals(algebra: AlgebraDescriptor, n: int, rng: np.random.Generator) -> dict:
    """Max relative residuals of the defining axioms over n random triples.

    Keys: commutativity, jordan_identity, neutrality, form_associativity.
    Residuals are normalized by the product of the operand norms, so the
    reported values are scale free.
    """
    x = rng.standard_normal((n, algebra.dim))
    y = rng.standard_normal((n, algebra.dim))
    z = rng.standard_normal((n, algebra.dim))
    nx, ny, nz = (batch_norm(algebra, v) for v in (x, y, z))

    xy = batch_jordan_product(algebra, x, y)
    yx = batch_jordan_product(algebra, y, x)
    commutativity = float(np.max(batch_norm(algebra, xy - yx) / (nx * ny)))

    xx = batch_jordan_product(algebra, x, x)
    lhs = batch_jordan_product(algebra, x, batch_jordan_product(algebra, xx, y))
    rhs = batch_jordan_product(algebra, xx, xy)
    jordan_identity = float(np.max(batch_norm(algebra, lhs - rhs) / (nx**3 * ny)))

    e = identity(algebra).coords[None, :]
    neutrality = float(np.max(batch_norm(algebra, batch_jordan_product(algebra, x, e) - x) / nx))

    yz = batch_jordan_product(algebra, y, z)
    form_lhs = algebra.inner_scale * np.sum(x * yz, axis=1)
    form_rhs = algebra.inner_scale * np.sum(xy * z, axis=1)
    form_associativity = float(np.max(np.abs(form_lhs - form_rhs) / (nx * ny * nz)))

    return {
        "commutativity": commutativity,
        "jordan_identity": jordan_identity,
        "neutrality": neutrality,
        "form_associativity": form_associativity,
    }


def spectral_residuals(algebra: AlgebraDescriptor, n: int, rng: np.random.Generator) -> dict:
    """Max relative residuals of the spectral calculus: spectral_reconstruction on n standard
    normal rows, then inverse_involution (v^{-1})^{-1} = v on ``random_cone_points(n, 0.05, 20.0)``."""
    x = rng.standard_normal((n, algebra.dim))
    lam, rebuild = batch_spectrum(algebra, x)
    recon = np.linalg.norm(rebuild(lam) - x, axis=1) / np.maximum(np.linalg.norm(x, axis=1), 1e-30)
    v = random_cone_points(algebra, n, rng, 0.05, 20.0)
    inv_inv = batch_spectral_map(algebra, batch_spectral_map(algebra, v, np.reciprocal), np.reciprocal)
    inv_resid = np.linalg.norm(inv_inv - v, axis=1) / np.linalg.norm(v, axis=1)
    return {"spectral_reconstruction": float(np.max(recon)), "inverse_involution": float(np.max(inv_resid))}
