import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import gammaln, roots_genlaguerre  # reference values

from conelab import _stats
from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import distributions as dist
from conelab import peirce
from conelab import triangular as tri
from conelab.peirce import PowerExponent
from conelab.errors import DomainError, ValidationError

from conftest import ALGEBRAS


def test_gamma_cone_closed_forms():
    a1 = alg.sym_real(1)
    assert dist.gamma_cone((2.5,), a1) == pytest.approx(math.gamma(2.5), rel=1e-12)
    a2 = alg.sym_real(2)
    want = math.sqrt(2.0 * math.pi) * math.gamma(2.0) * math.gamma(1.5)
    assert dist.gamma_cone((2.0, 2.0), a2) == pytest.approx(want, rel=1e-12)
    assert dist.gamma_cone((2.0, 2.0), a2) == pytest.approx(2.2214, abs=5e-5)
    with pytest.raises(DomainError):
        dist.gamma_cone((2.0, 0.5), a2)  # needs s_2 > d/2


@pytest.mark.parametrize("a", ALGEBRAS + [alg.sym_real(1), alg.sym_real(8), alg.herm_complex(6)], ids=lambda a: a.name)
def test_log_gamma_cone_matches_gammaln(a):
    """The sum of math.lgamma terms agrees with scipy's gammaln to 1e-14 relative
    (absolute where the value is below 1, near the zeros of log Gamma)."""
    rng = np.random.default_rng(a.dim)
    for _ in range(200):
        s = 0.5 * a.peirce_d * np.arange(a.rank) + rng.uniform(0.05, 30.0, size=a.rank)
        want = 0.5 * (a.dim - a.rank) * np.log(2.0 * np.pi) + np.sum(gammaln(dist.gamma_shapes(s, a)))
        assert_allclose(dist.log_gamma_cone(s, a), want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 48])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.3, 1.0, 2.5, 7.25])
def test_gauss_laguerre_matches_scipy(n, alpha):
    x, w = dist.gauss_laguerre(n, alpha)
    x_ref, w_ref = roots_genlaguerre(n, alpha)
    assert_allclose(x, x_ref, rtol=0, atol=1e-12)
    assert_allclose(w, w_ref, rtol=1e-10, atol=0)


def test_gauss_laguerre_integrates_polynomials_exactly():
    """An n-point rule integrates x^k x^alpha e^{-x} exactly for k < 2n: Gamma(alpha + k + 1)."""
    for n, alpha in [(3, 0.5), (12, 1.0), (20, 2.3)]:
        x, w = dist.gauss_laguerre(n, alpha)
        for k in range(2 * n):
            want = math.gamma(alpha + k + 1)
            assert np.sum(w * x**k) == pytest.approx(want, rel=1e-9), (n, alpha, k)


def test_gauss_laguerre_validation():
    for n, alpha in [(0, 1.0), (3, -1.0), (3, -2.0)]:
        with pytest.raises(ValidationError):
            dist.gauss_laguerre(n, alpha)


def test_param_validation():
    a = alg.sym_real(2)
    e = alg.identity(a)
    with pytest.raises(DomainError):
        dist.WishartParams(0.5, e)  # needs p > dim/r - 1
    with pytest.raises(DomainError):
        dist.RieszParams(PowerExponent.of((1.0, 0.2)), e, alg.standard_frame(a))
    with pytest.raises(DomainError):
        dist.WishartParams(2.0, -1.0 * e)


def test_riesz_equals_wishart_for_constant_exponent(rng):
    for a in ALGEBRAS:
        scale = alg.random_cone_element(a, rng, 0.7, 1.5)
        p = a.dim / a.rank + 0.8
        wp = dist.WishartParams(p, scale)
        rp = wp.as_riesz()
        for _ in range(10):
            x = alg.random_cone_element(a, rng, 0.2, 5.0)
            assert dist.riesz_logpdf(rp, x) == pytest.approx(
                dist.wishart_logpdf(wp, x), abs=1e-12
            )


def test_rank_one_reduces_to_gamma_density():
    a = alg.sym_real(1)
    frame = alg.standard_frame(a)
    p, rate = 2.0, 1.5
    rp = dist.RieszParams(PowerExponent.of((p,)), alg.Element(a, [rate]), frame)
    for x in (0.3, 1.0, 4.2):
        want = stats.gamma.logpdf(x, a=p, scale=1.0 / rate)
        assert dist.riesz_logpdf(rp, alg.Element(a, [x])) == pytest.approx(want, abs=1e-12)


def test_logpdf_outside_cone_is_minus_inf():
    a = alg.sym_real(2)
    rp = dist.WishartParams(2.0, alg.identity(a)).as_riesz()
    bad = alg.from_matrix(a, np.diag([1.0, -1.0]))
    assert dist.riesz_logpdf(rp, bad) == float("-inf")
    assert dist.wishart_logpdf(dist.WishartParams(2.0, alg.identity(a)), bad) == float("-inf")


def test_sampler_determinism():
    a = alg.sym_real(2)
    rp = dist.WishartParams(2.5, alg.identity(a)).as_riesz()
    d1 = dist.sample_riesz(rp, 5, np.random.default_rng(0))
    d2 = dist.sample_riesz(rp, 5, np.random.default_rng(0))
    for x, y in zip(d1, d2):
        assert_allclose(x.coords, y.coords)
    # another kind too
    b = alg.lorentz(3)
    rpb = dist.WishartParams(2.5, alg.identity(b)).as_riesz()
    g1 = dist.sample_riesz(rpb, 5, np.random.default_rng(0))
    g2 = dist.sample_riesz(rpb, 5, np.random.default_rng(0))
    for x, y in zip(g1, g2):
        assert_allclose(x.coords, y.coords)


def test_draws_lie_in_cone(rng):
    for a in ALGEBRAS:
        scale = alg.random_cone_element(a, rng, 0.8, 1.5)
        rp = dist.WishartParams(a.dim / a.rank + 0.6, scale).as_riesz()
        for x in dist.sample_riesz(rp, 200, rng):
            assert alg.eigenvalues(x).min() > 0
    # bulk check at 1e4 draws
    a = alg.sym_real(2)
    rp = dist.WishartParams(2.2, alg.identity(a)).as_riesz()
    draws = dist.sample_riesz(rp, 10_000, rng)
    mats = alg.coords_to_mats(a, draws.coords)
    assert np.linalg.eigvalsh(mats).min() > 0


def test_rank_one_sampler_matches_gamma_moments():
    a = alg.sym_real(1)
    frame = alg.standard_frame(a)
    rp = dist.RieszParams(PowerExponent.of((2.0,)), alg.Element(a, [1.5]), frame)
    draws = dist.sample_riesz(rp, 40000, np.random.default_rng(3)).coords[:, 0]
    assert draws.mean() == pytest.approx(2.0 / 1.5, abs=4 * draws.std() / math.sqrt(len(draws)))


@pytest.mark.parametrize(
    "a", [alg.sym_real(2), alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name
)
def test_wishart_sampler_mean(a, rng):
    scale = alg.random_cone_element(a, rng, 0.8, 1.6)
    p = a.dim / a.rank + 1.1
    rp = dist.WishartParams(p, scale).as_riesz()
    n = 20000 if a.kind == "sym_real" else 8000
    coords = dist.sample_riesz(rp, n, rng).coords
    mean = coords.mean(axis=0)
    se = coords.std(axis=0, ddof=1) / math.sqrt(n)
    target = p * alg.inverse(scale).coords
    assert np.all(np.abs(mean - target) <= 5.0 * np.maximum(se, 1e-12))


def test_fast_and_general_paths_agree_in_distribution():
    # the standard frame and a rotated frame give the same law once the
    # rotated draws are mapped back by the rotation
    a = alg.sym_real(2)
    scale = alg.identity(a)
    s = PowerExponent.of((2.6, 1.4))
    standard = dist.sample_riesz(
        dist.RieszParams(s, scale, alg.standard_frame(a)), 20000, np.random.default_rng(0)
    )
    rot = alg.random_automorphism_k(a, np.random.default_rng(42))
    frame_rot = alg.JordanFrame(tuple(rot.apply(c) for c in alg.standard_frame(a)))
    rotated = dist.sample_riesz(
        dist.RieszParams(s, scale, frame_rot), 20000, np.random.default_rng(1)
    )
    inv = rot.adjoint()  # rotations are orthogonal, adjoint = inverse
    rotated_back = np.array([inv.apply(x).coords for x in rotated])
    standard_coords = standard.coords
    stat, p, _ = _stats.energy_permutation_test(
        standard_coords, rotated_back, 199, np.random.default_rng(2), max_points=600
    )
    assert p > 0.01


def test_riesz_sampler_against_importance_resampled_reference():
    # reference: scipy Wishart draws importance-resampled to the Riesz law
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    scale = alg.from_matrix(a, np.array([[1.2, 0.25], [0.25, 0.9]]))
    s = PowerExponent.of((2.0, 1.6))
    rp = dist.RieszParams(s, scale, frame)
    n = 20000
    direct = dist.sample_riesz(rp, n, np.random.default_rng(10)).coords

    p_prop = 1.55
    df = 2.0 * p_prop
    sigma = np.linalg.inv(2.0 * scale.to_matrix())
    raw = stats.wishart.rvs(df=df, scale=sigma, size=2 * n, random_state=np.random.default_rng(11))
    prop_params = dist.WishartParams(p_prop, scale)
    proposals = alg.Points(a, alg.mats_to_coords(a, raw))
    log_w = dist.riesz_logpdf(rp, proposals) - dist.wishart_logpdf(prop_params, proposals)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    rng_resample = np.random.default_rng(12)
    positions = (np.arange(n) + rng_resample.uniform()) / n
    idx = np.searchsorted(np.cumsum(w), positions)
    reference = alg.mats_to_coords(a, raw[np.minimum(idx, len(raw) - 1)])

    rng_proj = np.random.default_rng(13)
    for _ in range(3):
        theta = rng_proj.standard_normal(a.dim)
        ks = stats.ks_2samp(direct @ theta, reference @ theta)
        assert ks.pvalue > 0.01

    # joint law of (first minor, determinant)
    def features(coords):
        mats = alg.coords_to_mats(a, coords)
        return np.column_stack([mats[:, 0, 0], np.linalg.det(mats)])

    stat, p, _ = _stats.energy_permutation_test(
        features(direct), features(reference), 199, np.random.default_rng(14), max_points=600
    )
    assert p > 0.01


def test_density_transforms_under_triangular_group(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    scale = alg.random_cone_element(a, rng, 0.8, 1.5)
    rp = dist.RieszParams(PowerExponent.of((2.4, 1.3)), scale, frame)
    from conelab.triangular import as_endomorphism, triangular_decompose

    for _ in range(10):
        x = alg.random_cone_element(a, rng, 0.3, 3.0)
        t = as_endomorphism(triangular_decompose(alg.random_cone_element(a, rng), frame))
        moved_scale = alg.Element(a, np.linalg.solve(t.matrix.T, scale.coords))
        lhs = dist.riesz_logpdf(dist.RieszParams(rp.s, moved_scale, frame), t.apply(x))
        rhs = dist.riesz_logpdf(rp, x) - math.log(t.ddet())
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_normalization_quadrature():
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    scale = alg.from_matrix(a, np.array([[1.5, 0.3], [0.3, 1.2]]))
    riesz = dist.RieszParams(PowerExponent.of((2.8, 1.6)), scale, frame)
    mass, spot = dist.riesz_normalization_quadrature(riesz, 48, 48, 32)
    assert mass == pytest.approx(1.0, abs=1e-4)
    assert spot < 1e-10
    wishart = dist.WishartParams(2.0, alg.identity(a)).as_riesz()
    mass2, spot2 = dist.riesz_normalization_quadrature(wishart, 48, 48, 32)
    assert mass2 == pytest.approx(1.0, abs=1e-4)
    assert spot2 < 1e-10


def test_domain_membership():
    a = alg.sym_real(2)
    e = alg.identity(a)
    assert dist.in_domain_D(0.5 * e)
    assert not dist.in_domain_D(e)
    assert not dist.in_domain_D(-0.5 * e)
    u = alg.from_matrix(a, np.array([[0.6, 0.3], [0.3, 0.6]]))
    assert dist.in_domain_D(u)  # eigenvalues 0.9 and 0.3
    assert not dist.in_domain_D(2.0 * u)


def test_csv_roundtrip(tmp_path, rng):
    a = alg.herm_complex(2)
    rp = dist.WishartParams(2.5, alg.identity(a)).as_riesz()
    draws = dist.sample_riesz(rp, 20, rng)
    path = tmp_path / "draws.csv"
    dist.save_samples_csv(path, draws)
    loaded = dist.load_samples_csv(path)
    assert isinstance(loaded, alg.Points)
    assert len(loaded) == 20
    assert loaded.algebra == a
    assert np.array_equal(loaded.coords, draws.coords)
    with pytest.raises(ValidationError):
        dist.save_samples_csv(tmp_path / "empty.csv", [])
    with pytest.raises(ValidationError):
        dist.save_samples_csv(tmp_path / "empty.csv", draws[:0])
    assert not (tmp_path / "empty.csv").exists()


def test_density_model_sampling_and_logpdf(rng):
    a = alg.sym_real(2)
    w = ma.w1(a)
    scale = alg.random_cone_element(a, rng, 0.8, 1.5)
    params = dist.WishartParams(2.5, scale)
    model = dist.wishart_model(params, w)
    x = alg.random_cone_element(a, rng)
    assert model.logpdf(x) == pytest.approx(dist.wishart_logpdf(params, x), abs=1e-10)
    draws = model.sample(50, rng)
    assert len(draws) == 50
    # the scale sign convention: lam = -a
    assert_allclose(model.lam.coords, -scale.coords)


def per_draw_riesz_reference(params, n, rng):
    """The sampler's Frobenius chain evaluated one draw at a time with scalar products.

    Reads the same variate arrays as :func:`dist.sample_riesz`: an (n, r)
    gamma array, then an (n, dim - r) normal array in Peirce-basis order.
    """
    a = params.algebra
    frame = params.frame
    basis = peirce.build_peirce_basis(frame)
    z_rows = [
        np.vstack([basis.subspaces[(j, k)] for k in range(j + 1, a.rank)])
        for j in range(a.rank - 1)
    ]
    scale = None
    if np.max(np.abs(params.a.coords - alg.identity(a).coords)) >= 1e-14:
        scale = tri.as_endomorphism(tri.triangular_decompose(alg.inverse(params.a), frame))
    gammas = rng.gamma(shape=dist.gamma_shapes(params.s, a), size=(n, a.rank))
    normals = rng.standard_normal((n, a.dim - a.rank))

    def frobenius(c, z, y):
        def n_apply(v):
            zc = alg.jordan_product(z, c)
            return 2.0 * (
                alg.jordan_product(zc, v)
                + alg.jordan_product(z, alg.jordan_product(c, v))
                - alg.jordan_product(c, alg.jordan_product(z, v))
            )

        ny = n_apply(y)
        return y + ny + 0.5 * n_apply(ny)

    out = []
    for alphas, xi in zip(gammas, normals):
        zs = []
        start = 0
        for j in range(a.rank - 1):
            width = z_rows[j].shape[0]
            block = xi[start : start + width] / np.sqrt(alphas[j])
            zs.append(alg.Element(a, block @ z_rows[j]))
            start += width
        y = alg.Element(a, np.sum([al * c.coords for al, c in zip(alphas, frame)], axis=0))
        for j in range(a.rank - 2, -1, -1):
            y = frobenius(frame[j], zs[j], y)
        if scale is not None:
            y = scale.apply(y)
        out.append(y)
    return out


def _riesz_test_params(a, frame):
    shifts = 0.5 * a.peirce_d * np.arange(a.rank) + a.dim / a.rank
    scales = (alg.identity(a), alg.random_cone_element(a, np.random.default_rng(3), 0.8, 1.6))
    return [dist.RieszParams(PowerExponent.of(shifts + 0.8), scale, frame) for scale in scales]


@pytest.mark.parametrize(
    "a, rotate",
    [
        (alg.herm_complex(3), False),
        (alg.lorentz(4), False),
        (alg.sym_real(2), True),
        (alg.sym_real(2), False),
    ],
    ids=["herm_complex(3)", "lorentz(4)", "sym_real(2)-rotated", "sym_real(2)"],
)
def test_batched_sampler_matches_per_draw_reference(a, rotate):
    frame = alg.standard_frame(a)
    if rotate:
        rot = alg.random_automorphism_k(a, np.random.default_rng(42))
        frame = alg.JordanFrame(tuple(rot.apply(c) for c in frame))
    for params in _riesz_test_params(a, frame):
        rng_batch, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        draws = dist.sample_riesz(params, 200, rng_batch)
        want = per_draw_riesz_reference(params, 200, rng_ref)
        assert all(isinstance(d, alg.Element) for d in draws)
        assert_allclose(
            np.array([d.coords for d in draws]), np.array([d.coords for d in want]), rtol=0, atol=1e-12
        )
        assert rng_batch.bit_generator.state == rng_ref.bit_generator.state


def lower_triangular_riesz_reference(params, n, rng):
    """Riesz draws T T^t on sym_real with the standard frame, T lower triangular.

    T has diagonal sqrt(gamma(s_j - (j-1)/2)) and N(0, 1/2) entries below
    the diagonal; a scale a != e multiplies T on the left by the Cholesky
    factor of a^{-1}.
    """
    a = params.algebra
    r = a.rank
    diag = np.sqrt(rng.gamma(shape=dist.gamma_shapes(params.s, a), size=(n, r)))
    t = np.zeros((n, r, r))
    idx = np.arange(r)
    t[:, idx, idx] = diag
    lower = np.tril_indices(r, k=-1)
    t[:, lower[0], lower[1]] = rng.standard_normal((n, len(lower[0]))) * np.sqrt(0.5)
    if np.max(np.abs(params.a.coords - alg.identity(a).coords)) >= 1e-14:
        t = np.linalg.cholesky(alg.inverse(params.a).to_matrix()) @ t
    return alg.mats_to_coords(a, t @ np.transpose(t, (0, 2, 1)))


@pytest.mark.parametrize("a", [alg.sym_real(2), alg.sym_real(3)], ids=lambda a: a.name)
def test_sampler_matches_lower_triangular_reference(a):
    # below rank 4 the lower-triangle order (1,0), (2,0), (2,1) is the
    # Peirce order E_01, E_02, E_12, so both read the same variates
    for params in _riesz_test_params(a, alg.standard_frame(a)):
        rng_batch, rng_ref = np.random.default_rng(17), np.random.default_rng(17)
        got = dist.sample_riesz(params, 500, rng_batch).coords
        want = lower_triangular_riesz_reference(params, 500, rng_ref)
        rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert rel.max() <= 1e-12
        assert rng_batch.bit_generator.state == rng_ref.bit_generator.state


def listed_riesz_reference(params, n, rng):
    """The draws as a list of Elements, one per row of the batched Frobenius chain.

    This is the sampler before it returned a batch; it reads the same
    variates, in the same order, as :func:`dist.sample_riesz`, and applies
    the same scale matrix (held to the scalar group element by
    :func:`test_scale_matrix_is_the_group_element_sending_e_to_the_inverse_scale`).
    """
    a = params.algebra
    r = a.rank
    frame = params.frame
    basis = peirce.build_peirce_basis(frame)
    alphas = rng.gamma(shape=dist.gamma_shapes(params.s, a), size=(n, r))
    normals = rng.standard_normal((n, a.dim - r))
    z_rows = [np.vstack([basis.subspaces[(j, k)] for k in range(j + 1, r)]) for j in range(r - 1)]
    blocks = np.split(normals, np.cumsum([len(rows) for rows in z_rows])[:-1], axis=1)
    y = alphas @ np.array([c.coords for c in frame])
    for j in range(r - 2, -1, -1):
        z = (blocks[j] / np.sqrt(alphas[:, j, None])) @ z_rows[j]
        y = tri.batch_frobenius(frame, j, z, y)
    if np.max(np.abs(params.a.coords - alg.identity(a).coords)) >= 1e-14:
        y = y @ dist._scale_matrix(params).T
    return [alg.Element(a, row) for row in y]


@pytest.mark.parametrize("rotate", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize(
    "a", [alg.sym_real(1), alg.sym_real(3), alg.herm_complex(3), alg.lorentz(4)], ids=lambda a: a.name
)
def test_scale_matrix_is_the_group_element_sending_e_to_the_inverse_scale(a, rotate):
    frame = alg.standard_frame(a)
    if rotate:
        rot = alg.random_automorphism_k(a, np.random.default_rng(42))
        frame = alg.JordanFrame(tuple(rot.apply(c) for c in frame))
    identity_scale, params = _riesz_test_params(a, frame)
    assert dist._scale_matrix(identity_scale) is None
    got = dist._scale_matrix(params)
    a_inv = alg.inverse(params.a)
    want = tri.as_endomorphism(tri.triangular_decompose(a_inv, frame)).matrix
    assert_allclose(got, want, rtol=0, atol=1e-12)
    assert_allclose(got @ alg.identity(a).coords, a_inv.coords, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 500])
@pytest.mark.parametrize("rotate", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize(
    "a", [alg.sym_real(1), alg.sym_real(3), alg.herm_complex(3), alg.lorentz(4)], ids=lambda a: a.name
)
def test_sampler_batch_equals_the_listed_draws_bit_for_bit(a, rotate, n):
    frame = alg.standard_frame(a)
    if rotate:
        rot = alg.random_automorphism_k(a, np.random.default_rng(42))
        frame = alg.JordanFrame(tuple(rot.apply(c) for c in frame))
    for params in _riesz_test_params(a, frame):
        rng_batch, rng_ref = np.random.default_rng(19), np.random.default_rng(19)
        draws = dist.sample_riesz(params, n, rng_batch)
        want = listed_riesz_reference(params, n, rng_ref)
        assert isinstance(draws, alg.Points) and draws.algebra == a
        assert draws.coords.shape == (n, a.dim)
        assert np.array_equal(draws.coords, np.array([x.coords for x in want]).reshape(n, a.dim))
        assert all(np.array_equal(x.coords, y.coords) for x, y in zip(draws, want))
        assert rng_batch.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_batched_densities_match_one_row_calls(a, rng):
    frame = alg.standard_frame(a)
    scale = alg.random_cone_element(a, rng, 0.8, 1.6)
    wp = dist.WishartParams(a.dim / a.rank + 0.7, scale)
    rp = _riesz_test_params(a, frame)[1]
    densities = {
        "riesz": lambda x: dist.riesz_logpdf(rp, x),
        "wishart": lambda x: dist.wishart_logpdf(wp, x),
        "riesz_model": dist.riesz_model(rp, ma.w2(frame)).logpdf,
        "wishart_model": dist.wishart_model(wp, ma.w1(a)).logpdf,
    }
    inside = alg.random_cone_points(a, 40, rng, 0.2, 5.0)
    mixed = frame[0].coords - frame[1].coords  # eigenvalues 1 and -1
    batch = alg.Points(a, np.vstack([inside, -inside[:5], mixed, np.zeros(a.dim)]))
    for name, logpdf in densities.items():
        got = logpdf(batch)
        assert got.shape == (len(batch),), name
        one_row = [logpdf(x) for x in batch]
        assert all(isinstance(value, float) for value in one_row), name
        assert_allclose(got[:40], one_row[:40], rtol=0, atol=1e-12, err_msg=name)
        assert np.all(np.isfinite(got[:40])), name
        assert np.all(got[40:] == -np.inf) and np.all(np.array(one_row[40:]) == -np.inf), name
        assert logpdf(batch[:0]).shape == (0,), name
    with pytest.raises(ValidationError):
        dist.riesz_logpdf(rp, alg.Points(alg.lorentz(7), np.ones((2, 8))))
