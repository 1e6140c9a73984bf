import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import _stats
from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import distributions as dist
from conelab import funceq as fe
from conelab import lukacs as lk
from conelab.peirce import PowerExponent
from conelab.errors import ContractError, DomainError, InsufficientSampleError

import reference as ref
from conftest import ALGEBRAS, ks_distance_to_uniform


def make_models(a, w, p1=None, p2=None, rng=None):
    rng = rng or np.random.default_rng(0)
    scale = alg.random_cone_element(a, rng, 0.8, 1.5)
    ratio = a.dim / a.rank
    mx = dist.wishart_model(dist.WishartParams(p1 or ratio + 1.0, scale), w)
    my = dist.wishart_model(dist.WishartParams(p2 or ratio + 0.5, scale), w)
    return mx, my, scale


def test_quotient_of_equal_arguments_is_half_identity(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    e = alg.identity(a)
    x = alg.random_cone_element(a, rng)
    for w in (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame)):
        pair = ref.quotient_map(x, x, w)
        assert alg.norm(pair.u - 0.5 * e) < 1e-10
        assert alg.norm(pair.v - 2.0 * x) < 1e-12


def test_quotient_rank_one_reduces_to_scalar():
    a = alg.sym_real(1)
    w = ma.w1(a)
    x = alg.Element(a, [3.0])
    y = alg.Element(a, [1.0])
    pair = ref.quotient_map(x, y, w)
    assert pair.u.coords[0] == pytest.approx(0.75)
    assert pair.v.coords[0] == pytest.approx(4.0)
    xb, yb = lk.inverse_map(pair.u, pair.v, w)
    assert xb.coords[0] == pytest.approx(3.0)
    assert yb.coords[0] == pytest.approx(1.0)


def test_quotient_triangular_matches_cholesky_solve(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    w = ma.w2(frame)
    x = alg.from_matrix(a, np.array([[3.0, 1.0], [1.0, 1.0]]))
    y = alg.identity(a)
    pair = ref.quotient_map(x, y, w)
    t = np.linalg.cholesky((x + y).to_matrix())
    want = np.linalg.solve(t, np.linalg.solve(t, x.to_matrix()).T).T
    assert_allclose(pair.u.to_matrix(), want, atol=1e-12)


def test_quotient_requires_cone_points():
    a = alg.sym_real(2)
    w = ma.w1(a)
    bad = alg.from_matrix(a, np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        ref.quotient_map(bad, alg.identity(a), w)
    with pytest.raises(DomainError):
        lk.inverse_map(alg.identity(a), alg.identity(a), w)  # e is not inside D


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_bijection_roundtrip(a, rng):
    frame = alg.standard_frame(a)
    e = alg.identity(a)
    for w in (ma.w1(a), ma.w2(frame)):
        for _ in range(25):
            x = alg.random_cone_element(a, rng, 0.2, 5.0)
            y = alg.random_cone_element(a, rng, 0.2, 5.0)
            pair = ref.quotient_map(x, y, w)
            assert dist.in_domain_D(pair.u)
            xb, yb = lk.inverse_map(pair.u, pair.v, w)
            assert alg.norm(xb - x) + alg.norm(yb - y) <= 1e-10 * max(alg.norm(x), 1.0)
            # and the reverse composition
            u = dist.random_in_domain_D(a, rng)
            v = alg.random_cone_element(a, rng, 0.2, 5.0)
            x2, y2 = lk.inverse_map(u, v, w)
            pair2 = ref.quotient_map(x2, y2, w)
            assert alg.norm(pair2.u - u) + alg.norm(pair2.v - v) <= 1e-10


def test_inverse_map_of_half_identity_splits_evenly(rng):
    a = alg.herm_complex(2)
    frame = alg.standard_frame(a)
    e = alg.identity(a)
    v = alg.random_cone_element(a, rng)
    for w in (ma.w1(a), ma.w2(frame)):
        x, y = lk.inverse_map(0.5 * e, v, w)
        assert alg.norm(x - 0.5 * v) < 1e-10
        assert alg.norm(y - 0.5 * v) < 1e-10


def test_jacobian_examples(rng):
    a = alg.sym_real(2)
    w = ma.w1(a)
    v = alg.from_matrix(a, np.array([[2.0, 1.0], [1.0, 2.0]]))  # det 3
    analytic, numeric = lk.jacobian_check(v, w, 1e-5, rng=rng)
    assert analytic == pytest.approx(3.0**1.5, rel=1e-12)
    assert abs(analytic - numeric) / analytic < 1e-6
    e = alg.identity(a)
    analytic, numeric = lk.jacobian_check(e, w, 1e-5, rng=rng)
    assert analytic == pytest.approx(1.0)
    assert abs(analytic - numeric) < 1e-6


@pytest.mark.parametrize("a", [alg.sym_real(2), alg.lorentz(3)], ids=lambda a: a.name)
def test_jacobian_for_all_algorithms(a, rng):
    frame = alg.standard_frame(a)
    for w in (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame)):
        assert lk.jacobian_residual(w, 3, rng, 0.4, 2.5) < 1e-6


@pytest.mark.parametrize("a", [alg.sym_real(2), alg.herm_complex(2), alg.lorentz(3)], ids=lambda a: a.name)
def test_jacobian_residual_is_the_worst_point_of_the_jacobian_check_loop(a):
    """Under one seed: the max over n points of v, then jacobian_check, and the same generator state after."""
    w = ma.w2(alg.standard_frame(a))
    rng_loop, rng_fn = np.random.default_rng(17), np.random.default_rng(17)
    errors = []
    for _ in range(4):
        v = alg.random_cone_element(a, rng_loop, 0.3, 3.0)
        analytic, numeric = lk.jacobian_check(v, w, 1e-5, rng=rng_loop)
        errors.append(abs(analytic - numeric) / abs(analytic))
    assert lk.jacobian_residual(w, 4, rng_fn, 0.3, 3.0) == max(errors)
    assert rng_fn.bit_generator.state == rng_loop.bit_generator.state
    assert lk.jacobian_residual(w, 0, rng_fn, 0.3, 3.0) == 0.0


@pytest.mark.parametrize("a", [alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name)
def test_bijection_residual_and_its_domain_error(a, rng):
    x, y = fe.draw_cone_pairs(a, 40, rng)
    for w in (ma.w1(a), ma.w2(alg.standard_frame(a))):
        assert lk.bijection_residual(w, x, y) <= 1e-10
        with pytest.raises(DomainError):
            lk.bijection_residual(w, x, -0.5 * x)  # u = g(x / 2) x = 2 e leaves D


@pytest.mark.parametrize("a", [alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name)
def test_jacobian_prepares_the_v_stencil_once(a, rng):
    """One prepared batch of v, and one of the 2*dim distinct rows of the v stencil."""
    frame = alg.standard_frame(a)
    v = alg.random_cone_element(a, rng, 0.4, 2.5)
    u = 0.5 * alg.identity(a)
    for spec in ("w1", "w2", "interp:0.25", "kext:w2:3"):
        base = ma.parse_algorithm(spec, a, frame)
        rows_seen = []

        def counting(x, prepare=base.prepare):
            rows_seen.append(len(x))
            return prepare(x)

        w = dataclasses.replace(base, prepare=counting)
        got = lk.jacobian_check(v, w, 1e-5, u=u)
        assert rows_seen == [1, 2 * a.dim], spec
        assert got == lk.jacobian_check(v, base, 1e-5, u=u)
        assert abs(got[0] - got[1]) / abs(got[0]) < 1e-6, spec


def test_jacobian_step_validation(rng):
    a = alg.sym_real(2)
    with pytest.raises(Exception):
        lk.jacobian_check(alg.identity(a), ma.w1(a), 0.0, rng=rng)


def test_factorization_matched_models(rng):
    for a in [alg.sym_real(2), alg.lorentz(3)]:
        w = ma.w1(a)
        mx, my, _ = make_models(a, w, rng=rng)
        pairs = fe.draw_cone_pairs(a, 40, rng, 0.1, 10.0)
        assert lk.factorization_residual(mx, my, w, pairs) <= 1e-8


def test_factorization_riesz_triangular(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    w = ma.w2(frame)
    scale = alg.random_cone_element(a, rng, 0.8, 1.5)
    mx = dist.riesz_model(dist.RieszParams(PowerExponent.of((2.5, 1.2)), scale, frame), w)
    my = dist.riesz_model(dist.RieszParams(PowerExponent.of((1.8, 0.9)), scale, frame), w)
    pairs = fe.draw_cone_pairs(a, 40, rng, 0.1, 10.0)
    assert lk.factorization_residual(mx, my, w, pairs) <= 1e-8


def test_factorization_mismatch_detected(rng):
    a = alg.sym_real(2)
    w = ma.w1(a)
    mx, my, scale = make_models(a, w, rng=rng)
    shifted = alg.Element(a, scale.coords.copy())
    shifted = alg.from_matrix(a, scale.to_matrix() + 0.1 * np.eye(2))
    my_bad = dist.wishart_model(
        dist.WishartParams(my.riesz_params.s.values[0], shifted), w
    )
    pairs = fe.draw_cone_pairs(a, 40, rng, 0.1, 10.0)
    with pytest.raises(ContractError):
        lk.factorization_residual(mx, my_bad, w, pairs)
    assert lk.factorization_residual(mx, my_bad, w, pairs, strict=False) > 0.01


def rotated_frame(a, seed=42):
    rot = alg.random_automorphism_k(a, np.random.default_rng(seed))
    return alg.JordanFrame(tuple(rot.apply(c) for c in alg.standard_frame(a)))


def test_batch_quotient_matches_elementwise(rng):
    for a in [alg.sym_real(2), alg.sym_real(3), alg.herm_complex(2), alg.herm_complex(3), alg.lorentz(4)]:
        for frame in (alg.standard_frame(a), rotated_frame(a)):
            algorithms = [
                ma.parse_algorithm(spec, a, frame)
                for spec in ("w1", "w2", "interp:0.25", "kext:w2:17")
            ] + [ma.piecewise_det(frame)]
            # spectra in [0.05, 2] put det(x + y) on both sides of 1, so the
            # piecewise algorithm takes both of its branches
            x = np.array([alg.random_cone_element(a, rng, 0.05, 2.0).coords for _ in range(20)])
            y = np.array([alg.random_cone_element(a, rng, 0.05, 2.0).coords for _ in range(20)])
            dets = [alg.determinant(alg.Element(a, row)) for row in x + y]
            assert min(dets) < 1.0 < max(dets)
            for w in algorithms:
                u, v = lk.batch_quotient(w, x, y)
                for i in range(len(x)):
                    pair = ref.quotient_map(alg.Element(a, x[i]), alg.Element(a, y[i]), w)
                    assert_allclose(u[i], pair.u.coords, atol=1e-11, err_msg=f"{a.name} {w.spec}")
                    assert_allclose(v[i], pair.v.coords, atol=1e-12)


def test_independence_report_contract(rng):
    a = alg.sym_real(2)
    w = ma.w1(a)
    mx, my, _ = make_models(a, w, rng=rng)
    sx = mx.sample(400, rng)
    sy = my.sample(400, rng)
    rep1 = lk.independence_test(sx, sy, w, n_perm=99, rng=np.random.default_rng(5))
    rep2 = lk.independence_test(sx, sy, w, n_perm=99, rng=np.random.default_rng(5))
    assert rep1.statistic == rep2.statistic and rep1.p_value == rep2.p_value
    assert rep1.n == 400 and rep1.n_used == 400
    assert 0.0 < rep1.p_value <= 1.0
    assert rep1.seeds.get("entropy") == "5"
    with pytest.raises(InsufficientSampleError):
        lk.independence_test(sx[:50], sy[:50], w, n_perm=9, rng=rng)
    with pytest.raises(Exception):
        lk.independence_test(sx, sy[:100], w, n_perm=9, rng=rng)


def test_independence_test_reads_the_batch_as_its_stacked_array(rng):
    a = alg.herm_complex(2)
    w = ma.w2(alg.standard_frame(a))
    mx, my, _ = make_models(a, w, rng=rng)
    sx = mx.sample(400, rng)
    sy = my.sample(400, rng)
    rng_batch, rng_array = np.random.default_rng(7), np.random.default_rng(7)
    rep = lk.independence_test(sx, sy, w, n_perm=49, rng=rng_batch, max_points=300)
    x = np.array([s.coords for s in sx])
    y = np.array([s.coords for s in sy])
    u, v = lk.batch_quotient(w, x, y)
    want = _stats.dcor_permutation_test(_stats.whiten(u), _stats.whiten(v), 49, rng_array, 300)
    assert (rep.statistic, rep.p_value, rep.n_used) == want
    assert rng_batch.bit_generator.state == rng_array.bit_generator.state


def test_independence_matched_vs_mismatched(rng):
    a = alg.sym_real(2)
    w = ma.w1(a)
    scale = alg.random_cone_element(a, rng, 0.9, 1.3)
    p = 2.5
    mx = dist.wishart_model(dist.WishartParams(p, scale), w)
    my = dist.wishart_model(dist.WishartParams(p, scale), w)
    sx = mx.sample(3000, np.random.default_rng(1))
    sy = my.sample(3000, np.random.default_rng(2))
    rep = lk.independence_test(sx, sy, w, n_perm=199, rng=np.random.default_rng(3))
    assert rep.p_value > 0.01
    shifted = alg.from_matrix(a, scale.to_matrix() + 0.5 * np.eye(2))
    my2 = dist.wishart_model(dist.WishartParams(p, shifted), w)
    sy2 = my2.sample(3000, np.random.default_rng(2))
    rep2 = lk.independence_test(sx, sy2, w, n_perm=199, rng=np.random.default_rng(3))
    assert rep2.p_value < 0.01


@pytest.mark.slow
def test_null_p_values_are_uniform():
    # permutation p-value calibration: 200 repetitions under the null
    a = alg.sym_real(2)
    w = ma.w1(a)
    scale = alg.identity(a)
    mx = dist.wishart_model(dist.WishartParams(2.5, scale), w)
    my = dist.wishart_model(dist.WishartParams(2.0, scale), w)
    p_values = []
    root = np.random.SeedSequence(2024)
    for child in root.spawn(200):
        rng = np.random.default_rng(child)
        sx = mx.sample(250, rng)
        sy = my.sample(250, rng)
        rep = lk.independence_test(sx, sy, w, n_perm=99, rng=rng, max_points=250)
        p_values.append(rep.p_value)
    assert ks_distance_to_uniform(np.array(p_values)) <= 0.12


def test_rotation_identity_gives_equal_samples(rng):
    a = alg.sym_real(2)
    w = ma.w1(a)
    mx, my, _ = make_models(a, w, rng=rng)
    sx = mx.sample(300, rng)
    sy = my.sample(300, rng)
    u, _ = lk.batch_quotient(w, sx.coords, sy.coords)
    k = alg.Endomorphism.identity(a)
    assert_allclose(u @ k.matrix.T, u)


def test_k_invariant_quotient_dichotomy():
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    scale = alg.from_matrix(a, np.array([[1.2, 0.2], [0.2, 0.9]]))
    wq = ma.w1(a)
    mx = dist.wishart_model(dist.WishartParams(2.5, scale), wq)
    my = dist.wishart_model(dist.WishartParams(3.0, scale), wq)
    rep = lk.k_invariant_quotient_check(
        mx, my, wq, np.random.default_rng(21), n=2000, n_rotations=8, n_perm=199, max_points=500
    )
    assert rep.n_reject <= 1
    wt = ma.w2(frame)
    rz = dist.riesz_model(dist.RieszParams(PowerExponent.of((3.0, 1.0)), scale, frame), wt)
    rep2 = lk.k_invariant_quotient_check(
        rz, rz, wt, np.random.default_rng(22), n=2000, n_rotations=8, n_perm=199, max_points=500
    )
    assert rep2.n_reject >= 4
    assert len(rep2.p_values) == 8
