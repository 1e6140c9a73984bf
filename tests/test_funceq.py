import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import funceq as fe
from conelab.errors import FitError, InconsistencyError, ValidationError

from conftest import ALGEBRAS


def test_log_cauchy_vanishes_at_identity(rng):
    a = alg.sym_real(3)
    e = alg.identity(a)
    frame = alg.standard_frame(a)
    fns = [
        fe.log_det_power(0.9, a),
        fe.delta_s_log((1.5, 1.0, 0.5), frame),
        fe.zero_fn(a),
    ]
    for f in fns:
        assert abs(f(e)) < 1e-12


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_log_det_solves_every_algorithm(a, rng):
    pairs = fe.draw_cone_pairs(a, 50, rng)
    f = fe.log_det_power(0.8, a)
    frame = alg.standard_frame(a)
    k = alg.random_automorphism_k(a, rng)
    for w in (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame), ma.k_extended(ma.w1(a), k)):
        assert fe.wlog_residual(f, w, pairs) <= 1e-9


@pytest.mark.parametrize("a", [alg.sym_real(2), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name)
def test_delta_s_solves_triangular_only(a, rng):
    frame = alg.standard_frame(a)
    pairs = fe.draw_cone_pairs(a, 50, rng)
    svec = np.linspace(2.0, 1.0, a.rank)
    f = fe.delta_s_log(svec, frame)
    assert fe.wlog_residual(f, ma.w2(frame), pairs) <= 1e-9
    assert fe.wlog_residual(f, ma.w1(a), pairs) > 0.01


def test_wlog_residual_stable_under_k_extension(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    pairs = fe.draw_cone_pairs(a, 80, rng)
    k = alg.random_automorphism_k(a, rng)
    f = fe.delta_s_log((2.0, 1.0), frame)
    base = fe.wlog_residual(f, ma.w2(frame), pairs)
    extended = fe.wlog_residual(f, ma.k_extended(ma.w2(frame), k), pairs)
    assert base <= 1e-9 and extended <= 1e-9


def test_wlog_scaling_consequences(rng):
    # a function with small equation residual drifts logarithmically in scale
    a = alg.sym_real(2)
    w = ma.w1(a)
    f = fe.log_det_power(1.1, a)
    pairs = fe.draw_cone_pairs(a, 50, rng)
    eps = max(fe.wlog_residual(f, w, pairs), 1e-12)
    e = alg.identity(a)
    assert abs(f(e)) <= eps
    for _ in range(10):
        x = alg.random_cone_element(a, rng)
        s = float(rng.uniform(0.3, 3.0))
        assert abs(f(s * x) - f(x) - f(s * e)) <= 2 * eps


def test_pexider_fit_exact_recovery(rng):
    a = alg.lorentz(3)
    lam = alg.random_element(a, rng)
    alpha, beta = 0.7, -1.1
    xs = np.array([alg.random_cone_element(a, rng).coords for _ in range(30)])
    ys = np.array([alg.random_cone_element(a, rng).coords for _ in range(30)])
    lam_row = a.inner_scale * lam.coords
    fit = fe.pexider_fit(
        a,
        (xs, xs @ lam_row + alpha),
        (ys, ys @ lam_row + beta),
        (xs + ys, (xs + ys) @ lam_row + alpha + beta),
    )
    assert alg.norm(fit.lam - lam) < 1e-8
    assert fit.alpha == pytest.approx(alpha, abs=1e-8)
    assert fit.beta == pytest.approx(beta, abs=1e-8)
    assert fit.residual < 1e-8


def test_pexider_fit_zero_and_errors(rng):
    a = alg.sym_real(2)
    xs = np.array([alg.random_cone_element(a, rng).coords for _ in range(20)])
    zeros = np.zeros(len(xs))
    fit = fe.pexider_fit(a, (xs, zeros), (xs, zeros), (2.0 * xs, zeros))
    assert alg.norm(fit.lam) < 1e-10 and abs(fit.alpha) < 1e-10 and abs(fit.beta) < 1e-10
    empty = (np.empty((0, a.dim)), np.empty(0))
    with pytest.raises(FitError):
        fe.pexider_fit(a, empty, empty, empty)
    with pytest.raises(FitError):
        fe.pexider_fit(a, (xs[:1], [1.0]), (xs[:1], [1.0]), (xs[:1], [2.0]))


def test_pexider_fit_flags_violation(rng):
    a = alg.sym_real(2)
    xs = np.array([alg.random_cone_element(a, rng).coords for _ in range(40)])
    ys = np.array([alg.random_cone_element(a, rng).coords for _ in range(40)])
    lam = alg.random_element(a, rng)

    def quad(x):
        return x @ lam.coords + 0.05 * np.sum(x * x, axis=1)

    fit = fe.pexider_fit(a, (xs, quad(xs)), (ys, quad(ys)), (xs + ys, quad(xs) + quad(ys)))
    assert fit.residual > 1e-3


def instance_roundtrip(a, w, lam, e_fn, f_fn, c1, c2, seed, n_points=400):
    oracles = fe.make_olkin_baker_instance(lam, e_fn, f_fn, w, c1=c1, c2=c2)
    return fe.olkin_baker_decompose(*oracles, w, fe.GridSpec(n_points=n_points, seed=seed))


def test_decompose_wishart_form():
    a = alg.sym_real(2)
    w = ma.w1(a)
    lam = -1.0 * alg.identity(a)
    dec = instance_roundtrip(a, w, lam, fe.log_det_power(0.7, a), fe.log_det_power(1.3, a), 0.0, 0.0, seed=1)
    assert alg.norm(dec.lam - lam) < 1e-9
    assert dec.e_fn.declared_form == fe.FORM_LOG_DET_POWER
    assert dec.e_fn.params["kappa"] == pytest.approx(0.7, abs=1e-9)
    assert dec.f_fn.params["kappa"] == pytest.approx(1.3, abs=1e-9)
    assert dec.k1 == pytest.approx(0.7 * a.rank, abs=1e-9)
    assert dec.k2 == pytest.approx(1.3 * a.rank, abs=1e-9)
    assert dec.constant_defect < 1e-9
    assert dec.diagnostics["reconstruction_residual"] < 1e-9


def test_decompose_riesz_form_and_held_out_match(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    w = ma.w2(frame)
    lam = -1.0 * alg.identity(a)
    planted = fe.delta_s_log((2.0, 1.0), frame)
    dec = instance_roundtrip(
        a, w, lam, planted, fe.delta_s_log((1.5, 0.5), frame), 0.3, -0.2, seed=2
    )
    assert alg.norm(dec.lam - lam) < 1e-9
    assert dec.e_fn.declared_form == fe.FORM_DELTA_S_LOG
    assert_allclose(dec.e_fn.params["s"], [2.0, 1.0], atol=1e-8)
    assert dec.c1 == pytest.approx(0.3, abs=1e-9)
    assert dec.c2 == pytest.approx(-0.2, abs=1e-9)
    for _ in range(20):
        x = alg.random_cone_element(a, rng, 0.05, 20.0)  # held-out points
        assert dec.e_fn(x) == pytest.approx(planted(x), abs=1e-6)


def test_decompose_zero_oracles():
    a = alg.sym_real(2)
    w = ma.w1(a)
    dec = instance_roundtrip(
        a, w, alg.zero(a), fe.zero_fn(a), fe.zero_fn(a), 0.0, 0.0, seed=3, n_points=200
    )
    assert alg.norm(dec.lam) < 1e-10
    assert abs(dec.k1) < 1e-10 and abs(dec.k2) < 1e-10
    for c in (dec.c1, dec.c2, dec.c3, dec.c4):
        assert abs(c) < 1e-10
    x = alg.random_cone_element(a, np.random.default_rng(0))
    assert abs(dec.e_fn(x)) < 1e-9


def test_decompose_lorentz_instance():
    a = alg.lorentz(3)
    w = ma.w1(a)
    lam = -0.5 * alg.identity(a)
    dec = instance_roundtrip(
        a, w, lam, fe.log_det_power(0.4, a), fe.log_det_power(0.9, a), 0.1, 0.2, seed=4
    )
    assert alg.norm(dec.lam - lam) < 1e-8
    assert dec.e_fn.params["kappa"] == pytest.approx(0.4, abs=1e-8)


RECOVERY_CASES = [
    (kind, spec, form)
    for kind in ("herm_complex(2)", "lorentz(4)")
    for spec, form in (
        ("w1", fe.FORM_LOG_DET_POWER),
        ("w2", fe.FORM_DELTA_S_LOG),
        ("interp:0.25", fe.FORM_LOG_DET_POWER),
        ("kext:w2:3", fe.FORM_LOG_DET_POWER),
        ("kext:w2:3", fe.FORM_DELTA_S_LOG),
    )
]


@pytest.mark.parametrize("kind,spec,form", RECOVERY_CASES)
def test_decompose_recovers_every_kind_and_algorithm(kind, spec, form):
    """Planted log-det parts solve every algorithm, Delta_s parts the triangular ones."""
    a = alg.parse_algebra(kind)
    frame = alg.standard_frame(a)
    w = ma.parse_algorithm(spec, a, frame)
    lam = -1.0 * alg.identity(a)
    if form == fe.FORM_LOG_DET_POWER:
        planted = (fe.log_det_power(0.7, a), fe.log_det_power(1.3, a))
    else:
        planted = (fe.delta_s_log((2.0, 1.0), frame), fe.delta_s_log((1.5, 0.5), frame))
    dec = instance_roundtrip(a, w, lam, *planted, 0.1, -0.2, seed=11, n_points=500)
    assert alg.norm(dec.lam - lam) < 1e-9
    for got, want, drift in ((dec.e_fn, planted[0], dec.k1), (dec.f_fn, planted[1], dec.k2)):
        assert got.declared_form == form
        for key, value in want.params.items():
            assert_allclose(got.params[key], value, atol=1e-9)
        # a(sx) - a(x) drifts by k log s, with k the sum of the exponent vector
        k = want.params["kappa"] * a.rank if form == fe.FORM_LOG_DET_POWER else sum(want.params["s"])
        assert drift == pytest.approx(k, abs=1e-9)
    assert dec.c1 == pytest.approx(0.1, abs=1e-9)
    assert dec.c2 == pytest.approx(-0.2, abs=1e-9)
    assert dec.constant_defect < 1e-9


def test_decompose_rejects_inconsistent_data():
    a = alg.sym_real(2)
    w = ma.w1(a)
    lam = -1.0 * alg.identity(a)
    oracles = fe.make_olkin_baker_instance(
        lam, fe.log_det_power(0.7, a), fe.log_det_power(1.3, a), w
    )
    a_fn, b_fn, c_fn, d_fn = oracles

    def a_bad(x):
        return a_fn(x) + 0.02 * np.sum(x * x, axis=1)

    with pytest.raises(InconsistencyError):
        fe.olkin_baker_decompose(a_bad, b_fn, c_fn, d_fn, w, fe.GridSpec(n_points=200, seed=5))


def test_decompose_rejects_an_oracle_wrong_only_at_identity():
    """c off by 1e-3 at e passes the equation and Pexider gates but not the recovered parts."""
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    w = ma.w2(frame)
    e = alg.identity(a)
    a_fn, b_fn, c_fn, d_fn = fe.make_olkin_baker_instance(
        -1.0 * e, fe.delta_s_log((2.0, 1.0), frame), fe.delta_s_log((1.5, 0.5), frame), w
    )

    def c_bad(x):
        return c_fn(x) + np.where(np.all(x == e.coords, axis=1), 1e-3, 0.0)

    with pytest.raises(InconsistencyError, match="residual 1.000e-03"):
        fe.olkin_baker_decompose(a_fn, b_fn, c_bad, d_fn, w, fe.GridSpec(n_points=300, seed=2))


@pytest.mark.parametrize("first_bad_call", [0, 1], ids=["equation-check", "later-stage"])
@pytest.mark.parametrize("role", "abcd")
def test_decompose_rejects_an_oracle_with_nan_at_one_row(role, first_bad_call):
    """A NaN at one grid row fails a gate, whichever stage first evaluates it."""
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    w = ma.w2(frame)
    oracles = list(
        fe.make_olkin_baker_instance(
            -1.0 * alg.identity(a), fe.delta_s_log((2.0, 1.0), frame), fe.delta_s_log((1.5, 0.5), frame), w
        )
    )
    clean = oracles["abcd".index(role)]
    calls = []

    def with_nan(x):
        values = clean(x)
        calls.append(len(x))
        if len(calls) > first_bad_call and len(x) > 4:
            values[4] = np.nan
        return values

    oracles["abcd".index(role)] = with_nan
    with pytest.raises(InconsistencyError):
        fe.olkin_baker_decompose(*oracles, w, fe.GridSpec(n_points=200, seed=5))


def test_decompose_rejects_inhomogeneous_algorithm():
    a = alg.sym_real(2)
    w = ma.piecewise_det(alg.standard_frame(a))
    z = fe.zero_fn(a)
    oracles = fe.make_olkin_baker_instance(alg.zero(a), z, z, w)
    with pytest.raises(ValidationError):
        fe.olkin_baker_decompose(*oracles, w, fe.GridSpec(n_points=100, seed=6))


def test_instance_constants_must_balance():
    a = alg.sym_real(2)
    with pytest.raises(ValidationError):
        fe.make_olkin_baker_instance(
            alg.zero(a), fe.zero_fn(a), fe.zero_fn(a), ma.w1(a), c1=1.0, c2=0.0, c3=0.0, c4=0.5
        )


def test_decomposition_serialization():
    a = alg.sym_real(2)
    w = ma.w1(a)
    dec = instance_roundtrip(
        a, w, -1.0 * alg.identity(a), fe.log_det_power(0.7, a), fe.log_det_power(1.3, a), 0.0, 0.0, seed=7, n_points=200
    )
    payload = dec.as_dict()
    assert payload["algebra"] == "sym_real(2)"
    assert set(payload["constants"]) == {"c1", "c2", "c3", "c4"}
    assert payload["e_fn"]["form"] == fe.FORM_LOG_DET_POWER
    assert "reconstruction_residual" in payload["diagnostics"]
    import json

    json.dumps(payload)  # must be JSON-serializable as is


def test_k_invariance_dichotomy(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    det_report = fe.k_invariance_check(fe.log_det_power(1.0, a), a, rng, 60)
    assert det_report.k_residual <= 1e-9
    assert det_report.equal_det_residual <= 1e-9
    s_report = fe.k_invariance_check(fe.delta_s_log((2.0, 1.0), frame), a, rng, 60)
    assert s_report.k_residual > 0.01
