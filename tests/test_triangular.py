import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import algebra as alg
from conelab import cli, peirce, triangular as tri
from conelab.errors import DomainError

import reference as ref
from conftest import ALGEBRAS


def half_space_sample(a, frame, basis, j, rng):
    rows = np.vstack([basis.subspaces[(j, k)] for k in range(j + 1, a.rank)])
    return alg.Element(a, rng.standard_normal(rows.shape[0]) @ rows)


def reference_decompose(x, frame):
    """The element-wise peel, kept as the reference for the batched one: (alphas, z rows).

    alpha_j is the E_jj component, z_j = S_j work / alpha_j with S_j the
    reference projection onto the span of E_jk, k > j, built from quad_rep
    and peirce_projectors, then tau_{c_j}(-z_j) reduces to the subalgebra of
    the remaining frame members.
    """
    r = len(frame)
    work = x
    alphas = np.empty(r)
    zs = []
    for j in range(r - 1):
        alphas[j] = alg.inner(work, frame[j])
        z = ref.strict_upper_projector(frame, j).apply(work) / alphas[j]
        zs.append(z.coords)
        work = tri.frobenius_transform(frame[j], -z, peirce.half_projector(frame, j)).apply(work)
    alphas[r - 1] = alg.inner(work, frame[r - 1])
    return alphas, zs


def z_rows(t, i=0):
    """The Frobenius parameters z_j of row i of a batch, mapped back from their coordinates."""
    return [coef[i] @ tri.upper_rows(t.frame, j) for j, coef in enumerate(t.frobenius_params)]


def triangular_from_cholesky(mat, frame):
    """The sym_real triangular element x -> T x T^t, T lower triangular, for the standard
    frame, and its z rows: alpha_j = T_jj^2 and z_j has entries T_kj / T_jj, k > j.

    The batch holds the coordinates of the z_j in the frame's upper rows."""
    a = frame.algebra
    alphas = np.diag(mat) ** 2
    rows = []
    for j in range(a.rank - 1):
        zm = np.zeros((a.rank, a.rank))
        zm[j, j + 1 :] = zm[j + 1 :, j] = mat[j + 1 :, j] / mat[j, j]
        rows.append(alg.from_matrix(a, zm).coords)
    coefs = tuple(a.inner_scale * (z @ tri.upper_rows(frame, j).T)[None, :] for j, z in enumerate(rows))
    return tri.TriangularBatch(frame, coefs, alphas[None, :]), rows


def test_box_operator_identity_cases(rng):
    a = alg.sym_real(3)
    e = alg.identity(a)
    assert_allclose(tri.box_operator(e, e).matrix, np.eye(a.dim), atol=1e-14)


def test_box_operator_expansion_example():
    # c = diag(1, 0), z = (mu12 + mu21)/2: applying 2 z box c to c returns z
    a = alg.sym_real(2)
    c = alg.standard_frame(a)[0]
    z = alg.from_matrix(a, np.array([[0.0, 0.5], [0.5, 0.0]]))
    n = 2.0 * tri.box_operator(z, c).matrix
    assert_allclose(n @ c.coords, z.coords, atol=1e-14)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_box_nilpotency(a, rng):
    frame = alg.standard_frame(a)
    basis = peirce.build_peirce_basis(frame)
    for j in range(a.rank - 1):
        z = half_space_sample(a, frame, basis, j, rng)
        n = 2.0 * tri.box_operator(z, frame[j]).matrix
        assert np.max(np.abs(n @ n @ n)) < 1e-10


def test_frobenius_zero_is_identity():
    a = alg.herm_complex(2)
    c = alg.standard_frame(a)[0]
    tau = tri.frobenius_transform(c, alg.zero(a))
    assert_allclose(tau.matrix, np.eye(a.dim), atol=1e-14)


def test_frobenius_matches_matrix_congruence(rng):
    # sym_real: tau_{c_i}(z) acts as x -> F x F^T with a unit lower-triangular F
    a = alg.sym_real(3)
    frame = alg.standard_frame(a)
    coeffs = rng.standard_normal(2)
    zm = np.zeros((3, 3))
    zm[0, 1] = zm[1, 0] = coeffs[0]
    zm[0, 2] = zm[2, 0] = coeffs[1]
    z = alg.from_matrix(a, zm)
    f = np.eye(3)
    f[1, 0] = coeffs[0]
    f[2, 0] = coeffs[1]
    tau = tri.frobenius_transform(frame[0], z)
    for _ in range(5):
        x = alg.random_element(a, rng)
        got = tau.apply(x).to_matrix()
        want = f @ x.to_matrix() @ f.T
        assert_allclose(got, want, atol=1e-12)


def test_frobenius_inverse_is_negated_parameter(rng):
    for a in ALGEBRAS:
        frame = alg.standard_frame(a)
        basis = peirce.build_peirce_basis(frame)
        z = half_space_sample(a, frame, basis, 0, rng)
        tau = tri.frobenius_transform(frame[0], z)
        tau_neg = tri.frobenius_transform(frame[0], -1.0 * z)
        assert_allclose((tau @ tau_neg).matrix, np.eye(a.dim), atol=1e-10)


def test_frobenius_unit_generalized_power(rng):
    for a in ALGEBRAS:
        frame = alg.standard_frame(a)
        basis = peirce.build_peirce_basis(frame)
        e = alg.identity(a)
        for j in range(a.rank - 1):
            z = half_space_sample(a, frame, basis, j, rng)
            image = tri.frobenius_transform(frame[j], z).apply(e)
            s = rng.uniform(-1.5, 1.5, a.rank)
            assert abs(peirce.generalized_power_log(image, s, frame)) < 1e-9


def test_decompose_identity_and_diagonal(rng):
    a = alg.sym_real(3)
    frame = alg.standard_frame(a)
    t = tri.triangular_decompose(alg.identity(a), frame)
    assert_allclose(t.diagonal, [np.ones(3)], atol=1e-12)
    for j, z in enumerate(t.frobenius_params):
        assert z.shape == (1, (a.rank - 1 - j) * a.peirce_d)
    for z in z_rows(t):
        assert alg.norm(alg.Element(a, z)) < 1e-12
    lam = rng.uniform(0.5, 2.0, 3)
    diag = alg.from_matrix(a, np.diag(lam))
    t = tri.triangular_decompose(diag, frame)
    assert_allclose(t.diagonal, [lam], atol=1e-12)
    for z in z_rows(t):
        assert alg.norm(alg.Element(a, z)) < 1e-12


def test_decompose_matches_cholesky(rng):
    a = alg.sym_real(3)
    frame = alg.standard_frame(a)
    for _ in range(10):
        x = alg.random_cone_element(a, rng, 0.2, 5.0)
        t = tri.triangular_decompose(x, frame)
        t_chol, chol_rows = triangular_from_cholesky(np.linalg.cholesky(x.to_matrix()), frame)
        assert_allclose(t.diagonal, t_chol.diagonal, rtol=1e-9)
        for z1, z2 in zip(z_rows(t), chol_rows):
            assert alg.norm(alg.Element(a, z1 - z2)) < 1e-9
        assert_allclose(
            tri.as_endomorphism(t).matrix, tri.as_endomorphism(t_chol).matrix, atol=1e-9
        )


def test_decompose_example_values():
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    x = alg.from_matrix(a, np.array([[4.0, 2.0], [2.0, 2.0]]))
    t = tri.triangular_decompose(x, frame)
    assert_allclose(t.diagonal, [[4.0, 1.0]], atol=1e-12)
    assert_allclose(alg.Element(a, z_rows(t)[0]).to_matrix(), [[0, 0.5], [0.5, 0]], atol=1e-12)


def test_decompose_requires_cone_point():
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    with pytest.raises(DomainError):
        tri.triangular_decompose(alg.from_matrix(a, np.diag([1.0, -1.0])), frame)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_roundtrip_random_cone_points(a, rng):
    frame = alg.standard_frame(a)
    e = alg.identity(a)
    worst = 0.0
    for _ in range(100):
        x = alg.random_cone_element(a, rng, 0.1, 10.0)
        t = tri.triangular_decompose(x, frame)
        worst = max(worst, alg.norm(tri.as_endomorphism(t).apply(e) - x) / alg.norm(x))
    assert worst <= 1e-9


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_power_function_cocycle(a, rng):
    frame = alg.standard_frame(a)
    e = alg.identity(a)
    for _ in range(10):
        t = tri.triangular_decompose(alg.random_cone_element(a, rng), frame)
        x = alg.random_cone_element(a, rng)
        s = rng.uniform(-1.5, 1.5, a.rank)
        lhs = peirce.generalized_power_log(tri.as_endomorphism(t).apply(x), s, frame)
        rhs = peirce.generalized_power_log(
            tri.as_endomorphism(t).apply(e), s, frame
        ) + peirce.generalized_power_log(x, s, frame)
        assert abs(lhs - rhs) < 1e-9


def test_adjoint_contract_and_transpose(rng):
    a = alg.sym_real(3)
    frame = alg.standard_frame(a)
    t = tri.triangular_decompose(alg.random_cone_element(a, rng), frame)
    m = tri.as_endomorphism(t)
    x = alg.random_element(a, rng)
    y = alg.random_element(a, rng)
    assert alg.inner(m.apply(x), y) == pytest.approx(
        alg.inner(x, m.adjoint().apply(y)), rel=1e-12, abs=1e-12
    )
    # in matrix form: t x = T x T^t implies t* x = T^t x T
    chol = np.linalg.cholesky(tri.as_endomorphism(t).apply(alg.identity(a)).to_matrix())
    got = m.adjoint().apply(x).to_matrix()
    assert_allclose(got, chol.T @ x.to_matrix() @ chol, atol=1e-9)


def test_adjoint_of_identity():
    a = alg.lorentz(3)
    frame = alg.standard_frame(a)
    t = tri.triangular_decompose(alg.identity(a), frame)
    assert_allclose(tri.as_endomorphism(t).adjoint().matrix, np.eye(a.dim), atol=1e-12)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_composition_stays_triangular(a, rng):
    frame = alg.standard_frame(a)
    t1 = tri.triangular_decompose(alg.random_cone_element(a, rng), frame)
    t2 = tri.triangular_decompose(alg.random_cone_element(a, rng), frame)
    product = tri.as_endomorphism(t1) @ tri.as_endomorphism(t2)
    t12 = tri.triangular_decompose(product.apply(alg.identity(a)), frame)
    assert_allclose(tri.as_endomorphism(t12).matrix, product.matrix, atol=1e-8)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_ddet_of_triangular_element(a, rng):
    frame = alg.standard_frame(a)
    for _ in range(5):
        x = alg.random_cone_element(a, rng, 0.2, 5.0)
        t = tri.triangular_decompose(x, frame)
        dd = tri.as_endomorphism(t).ddet()
        want = alg.determinant(x) ** (a.dim / a.rank)
        assert abs(dd - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_batch_decompose_matches_scalar(a, rng):
    rot = alg.random_automorphism_k(a, rng)
    for frame in (alg.standard_frame(a), alg.JordanFrame(tuple(rot.apply(c) for c in alg.standard_frame(a)))):
        xs = [alg.random_cone_element(a, rng, 0.1, 10.0) for _ in range(6)]
        batch = tri.batch_triangular_decompose(np.array([x.coords for x in xs]), frame)
        for i, x in enumerate(xs):
            alphas, zs = reference_decompose(x, frame)
            assert_allclose(batch.diagonal[i], alphas, rtol=1e-12)
            for z_batch, z in zip(z_rows(batch, i), zs):
                assert_allclose(z_batch, z, atol=1e-12)
        e = np.tile(alg.identity(a).coords, (len(xs), 1))
        assert_allclose(batch.apply(e), [x.coords for x in xs], atol=1e-11)
        assert_allclose(batch.solve(np.array([x.coords for x in xs])), e, atol=1e-12)


@pytest.mark.parametrize("a", [alg.sym_real(1), alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name)
def test_identity_residuals_on_no_samples_and_on_rank_one(a):
    frame = alg.standard_frame(a)
    assert tri.triangular_identity_residuals(frame, 0, np.random.default_rng(3)) == {
        "roundtrip": 0.0,
        "power_cocycle": 0.0,
        "frobenius_unit_power": 0.0,
        "box_nilpotency": 0.0,
    }
    if a.rank == 1:  # no Frobenius factor: those two keys are exactly zero
        found = tri.triangular_identity_residuals(frame, 20, np.random.default_rng(3))
        assert found["frobenius_unit_power"] == found["box_nilpotency"] == 0.0
        assert max(found["roundtrip"], found["power_cocycle"]) <= 1e-14


def test_frame_only_projectors_are_built_once():
    a = alg.sym_real(3)
    frame = alg.JordanFrame(alg.standard_frame(a).elements)
    assert not frame.members.flags.writeable
    assert np.array_equal(frame.members, [c.coords for c in frame])
    basis = peirce.build_peirce_basis(frame)
    assert peirce.build_peirce_basis(frame) is basis
    for j in range(a.rank - 1):
        assert peirce.half_projector(frame, j) is peirce.half_projector(frame, j)
        half = peirce.peirce_projectors(frame[j])[0.5].matrix
        assert_allclose(peirce.half_projector(frame, j).matrix, half, atol=0)
        rows = tri.upper_rows(frame, j)
        assert tri.upper_rows(frame, j) is rows and not rows.flags.writeable
        assert rows.shape == ((a.rank - 1 - j) * a.peirce_d, a.dim)
    # the box tensors are built on the first Frobenius step, not with the frame
    assert not any(key[0] == "box" for key in frame._cache)
    tri.batch_triangular_decompose(alg.random_cone_points(a, 4, np.random.default_rng(2), 0.5, 2.0), frame)
    for j in range(a.rank - 1):
        tensor = tri.box_tensor(frame, j)
        assert tri.box_tensor(frame, j) is tensor and not tensor.flags.writeable
        assert tensor.shape == (a.dim, (a.rank - 1 - j) * a.peirce_d * a.dim)


def _plus_identity(fn, eps):
    """fn plus eps times the identity: eps times its last argument, the rows it maps, is added."""

    def broken(*args):
        return fn(*args) + eps * args[-1]

    return broken


def _box_plus_identity(fn, eps):
    """The box tensor of fn with eps times the identity added to every block."""

    def broken(frame, j):
        tensor = fn(frame, j)
        return tensor + eps * np.tile(np.eye(len(tensor)), tensor.shape[1] // len(tensor))

    return broken


@pytest.mark.parametrize(
    "owner, name, breaker, failing",
    [
        (tri.TriangularBatch, "apply", None, None),
        (tri.TriangularBatch, "apply", lambda f: lambda t, y: 1.001 * f(t, y), "roundtrip"),
        (tri.TriangularBatch, "apply", lambda f: lambda t, y: f(t, y) + 1e-3 * alg.identity(t.frame.algebra).coords, "power_cocycle"),
        (tri, "batch_frobenius", lambda f: _plus_identity(f, 1e-3), "frobenius_unit_power"),
        (tri, "box_tensor", lambda f: _box_plus_identity(f, 1e-3), "box_nilpotency"),
        (tri, "batch_norm", lambda f: lambda algebra, coords: np.full(len(coords), np.nan), "roundtrip"),
    ],
    ids=[
        "intact",
        "scaled-group-action",
        "shifted-group-action",
        "shifted-frobenius",
        "box-not-nilpotent",
        "nan-residual",
    ],
)
def test_suite_triangular_flags_a_broken_ingredient(monkeypatch, owner, name, breaker, failing):
    """The shared triangular residuals rise above the suite thresholds when an ingredient is wrong.

    The ingredients are the batched ones the residuals call: the group action
    on rows, the Frobenius row map, the cached box tensor and the row norm.
    """
    if breaker is not None:
        monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    rng = np.random.default_rng(5)
    checks = cli.suite_triangular(alg.sym_real(3), None, rng, 20, cli.DEFAULT_TOLERANCES)
    failed = {key for key, check in checks.items() if not check["passed"]}
    assert (failed == set()) if failing is None else (failing in failed)


@pytest.mark.parametrize("a", ALGEBRAS + [alg.sym_real(1), alg.sym_real(8), alg.herm_complex(6)], ids=lambda a: a.name)
def test_constant_power_residual(a):
    """Delta_(p,..,p) = det^p at round-off, on no samples 0.0."""
    frame = alg.standard_frame(a)
    assert tri.constant_power_residual(frame, 50, np.random.default_rng(7)) <= 1e-10
    assert tri.constant_power_residual(frame, 0, np.random.default_rng(7)) == 0.0


def test_constant_power_residual_keeps_a_nan(monkeypatch):
    def nan_minors(frame, coords, s):
        return np.full(len(coords), np.nan)

    monkeypatch.setattr(tri, "batch_generalized_power_log", nan_minors)
    frame = alg.standard_frame(alg.sym_real(3))
    assert np.isnan(tri.constant_power_residual(frame, 20, np.random.default_rng(7)))
    checks = cli.suite_peirce(frame.algebra, None, np.random.default_rng(5), 20, cli.DEFAULT_TOLERANCES)
    assert not checks["constant_power_det"]["passed"]
