import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import cli
from conelab.errors import DomainError, ValidationError

from conftest import ALGEBRAS


def all_algorithms(a, frame=None):
    frame = frame or alg.standard_frame(a)
    k = alg.random_automorphism_k(a, np.random.default_rng(99))
    return [
        ma.w1(a),
        ma.w2(frame),
        ma.interp(0.25, frame),
        ma.k_extended(ma.w1(a), k),
    ]


def test_w1_multiply_example():
    a = alg.sym_real(2)
    w = ma.w1(a)
    x = alg.from_matrix(a, np.diag([4.0, 1.0]))
    y = alg.from_matrix(a, np.ones((2, 2)))
    assert_allclose(ma.multiply(w, x, y).to_matrix(), [[4.0, 2.0], [2.0, 1.0]], atol=1e-12)
    assert_allclose(
        ma.divide(w, x, alg.from_matrix(a, [[4.0, 2.0], [2.0, 1.0]])).to_matrix(),
        np.ones((2, 2)),
        atol=1e-12,
    )


def test_w2_matches_cholesky_congruence(rng):
    a = alg.sym_real(3)
    frame = alg.standard_frame(a)
    w = ma.w2(frame)
    x = alg.random_cone_element(a, rng)
    y = alg.random_element(a, rng)
    chol = np.linalg.cholesky(x.to_matrix())
    assert_allclose(
        ma.multiply(w, x, y).to_matrix(), chol @ y.to_matrix() @ chol.T, atol=1e-10
    )


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_neutrality_and_divide_contracts(a, rng):
    e = alg.identity(a)
    for w in all_algorithms(a):
        for _ in range(5):
            x = alg.random_cone_element(a, rng, 0.2, 5.0)
            assert alg.norm(ma.multiply(w, x, e) - x) <= 1e-9 * alg.norm(x)
            assert alg.norm(ma.divide(w, x, x) - e) <= 1e-10
            y = alg.random_element(a, rng)
            back = ma.multiply(w, x, ma.divide(w, x, y))
            assert alg.norm(back - y) <= 1e-10 * max(1.0, alg.norm(y))


def test_division_is_the_inverse_endomorphism(rng):
    for a in [alg.sym_real(3), alg.lorentz(4)]:
        for w in all_algorithms(a):
            x = alg.random_cone_element(a, rng, 0.2, 5.0)
            wx = w(x).matrix
            gx = np.linalg.inv(wx)
            assert np.max(np.abs(wx @ gx - np.eye(a.dim))) < 1e-10
            y = alg.random_element(a, rng)
            assert_allclose(ma.divide(w, x, y).coords, gx @ y.coords, atol=1e-10)


def test_multiply_requires_cone_point(rng):
    a = alg.sym_real(2)
    w = ma.w1(a)
    bad = alg.from_matrix(a, np.diag([1.0, -2.0]))
    with pytest.raises(DomainError):
        ma.multiply(w, bad, alg.identity(a))
    with pytest.raises(DomainError):
        ma.divide(w, bad, alg.identity(a))


def test_interp_endpoints(rng):
    a = alg.herm_complex(2)
    frame = alg.standard_frame(a)
    x = alg.random_cone_element(a, rng)
    d_half = np.max(np.abs(ma.interp(0.5, frame)(x).matrix - ma.w1(a)(x).matrix))
    d_zero = np.max(np.abs(ma.interp(0.0, frame)(x).matrix - ma.w2(frame)(x).matrix))
    assert d_half < 1e-9
    assert d_zero < 1e-9


def test_k_extension_neutrality_and_unit_image(rng):
    a = alg.sym_real(3)
    k = alg.random_automorphism_k(a, rng)
    w = ma.k_extended(ma.w2(alg.standard_frame(a)), k)
    e = alg.identity(a)
    x = alg.random_cone_element(a, rng)
    assert alg.norm(ma.multiply(w, x, e) - x) < 1e-9
    assert_allclose(w.unit_image().matrix, k.matrix, atol=1e-12)
    with pytest.raises(ValidationError):
        ma.k_extended(ma.w1(a), alg.lmap(2.0 * e))  # does not fix e


@pytest.mark.parametrize("a", [alg.sym_real(2), alg.lorentz(3)], ids=lambda a: a.name)
def test_check_algorithm_homogeneous_cases(a):
    rng = np.random.default_rng(5)
    for w in all_algorithms(a):
        report = ma.check_algorithm(w, 30, rng)
        assert report.neutrality <= 1e-9
        assert report.cone_violation == 0.0
        assert report.homogeneity <= 1e-9
        assert report.divide_scaling <= 1e-9
        assert report.ddet_rel <= 1e-8
        assert report.det_multiplicativity <= cli.DEFAULT_TOLERANCES["ddet"]
        assert report.divide_roundtrip <= cli.DEFAULT_TOLERANCES["bijection"]
        assert report.homogeneous


def test_a_nan_evaluation_fails_check_algorithm_and_the_mult_alg_suite():
    # the first prepared batch builds the stacked matrices w(x_i), one basis
    # vector per apply call; it returns NaN in the second sample's row, so that w(x) is all NaN
    a = alg.sym_real(2)
    base = ma.w1(a)

    def nan_in_second_sample():
        calls = [0]

        def prepare(x):
            calls[0] += 1
            batch = base.prepare(x)
            if calls[0] > 1:
                return batch

            def apply(y):
                rows = batch.apply(y)
                rows[1] = np.nan
                return rows

            return ma.RowMaps(apply, batch.solve)

        return dataclasses.replace(base, prepare=prepare)

    with np.errstate(invalid="ignore"):
        report = ma.check_algorithm(nan_in_second_sample(), 10, np.random.default_rng(0))
        checks = cli.suite_mult_alg(a, nan_in_second_sample(), np.random.default_rng(0), 10, cli.DEFAULT_TOLERANCES)
    assert np.isnan(report.neutrality)
    assert np.isnan(report.homogeneity) and not report.homogeneous
    assert not checks["neutrality"]["passed"]


def test_a_wrong_division_map_fails_the_mult_alg_suite():
    """A w2 whose solve returns twice the true rows passes every other check."""
    a = alg.sym_real(3)
    base = ma.w2(alg.standard_frame(a))

    def doubled_solve(x):
        batch = base.prepare(x)
        return ma.RowMaps(batch.apply, lambda y: 2.0 * batch.solve(y))

    doubled = dataclasses.replace(base, prepare=doubled_solve)
    good, bad = (
        cli.suite_mult_alg(a, w, np.random.default_rng(5), 30, cli.DEFAULT_TOLERANCES) for w in (base, doubled)
    )
    assert all(c["passed"] for c in good.values())
    assert not all(c["passed"] for c in bad.values())
    assert [name for name, c in bad.items() if not c["passed"]] == ["divide_roundtrip"]
    assert bad["divide_roundtrip"]["value"] == pytest.approx(1.0)
    assert ma.check_algorithm(doubled, 30, np.random.default_rng(5)).divide_roundtrip == pytest.approx(1.0)


@pytest.mark.parametrize("a", [alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name)
def test_x_rows_are_prepared_once(a, rng):
    """matrices(x) prepares its n rows once, and w(x) prepares one row."""
    frame = alg.standard_frame(a)
    specs = ("w1", "w2", "interp:0.25", "kext:w2:3")
    x = alg.random_cone_points(a, 6, rng, 0.2, 5.0)  # det x on both sides of 1 for piecewise
    for base in [ma.parse_algorithm(spec, a, frame) for spec in specs] + [ma.piecewise_det(frame)]:
        rows_seen = []

        def counting(x, prepare=base.prepare):
            rows_seen.append(len(x))
            return prepare(x)

        w = dataclasses.replace(base, prepare=counting)
        stacked = w.matrices(x)
        assert rows_seen == [len(x)], base.spec
        assert_allclose(stacked, base.matrices(x), rtol=0, atol=0, err_msg=base.spec)
        rows_seen.clear()
        w(alg.Element(a, x[0]))
        assert rows_seen == [1], base.spec


@pytest.mark.parametrize("a", ALGEBRAS + [alg.sym_real(1)], ids=lambda a: a.name)
def test_stacked_matrices_are_the_one_point_matrices(a, rng):
    frame = alg.standard_frame(a)
    specs = ("w1", "w2", "interp:0.25", "kext:w2:3")
    x = alg.random_cone_points(a, 6, rng, 0.2, 5.0)  # det x on both sides of 1 for piecewise
    for w in [ma.parse_algorithm(spec, a, frame) for spec in specs] + [ma.piecewise_det(frame)]:
        stacked = w.matrices(x)
        assert stacked.shape == (len(x), a.dim, a.dim)
        for xi, m in zip(x, stacked):
            assert_allclose(m, w(alg.Element(a, xi)).matrix, rtol=0, atol=1e-13, err_msg=w.spec)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_prepared_batches_act_on_stacks_of_y_rows(a, rng):
    """apply and solve on a (k, n, dim) stack give, slice by slice, their (n, dim) calls."""
    frame = alg.standard_frame(a)
    specs = ("w1", "w2", "interp:0.25", "kext:w2:3")
    x = alg.random_cone_points(a, 6, rng, 0.2, 5.0)
    y = rng.standard_normal((3, len(x), a.dim))
    for w in [ma.parse_algorithm(spec, a, frame) for spec in specs] + [ma.piecewise_det(frame)]:
        for rows in (x, x[:1]):
            batch = w.at(rows)
            for method in (batch.apply, batch.solve):
                stacked = method(y)
                assert stacked.shape == y.shape
                for k in range(len(y)):
                    assert_allclose(stacked[k], method(y[k]), rtol=1e-12, atol=1e-12, err_msg=w.spec)


@pytest.mark.parametrize("a", [alg.sym_real(1), alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name)
def test_check_algorithm_on_no_samples_and_on_rank_one(a):
    for w in all_algorithms(a):
        empty = ma.check_algorithm(w, 0, np.random.default_rng(3))
        assert empty.samples == 0 and empty.homogeneous
        residuals = (
            "neutrality", "homogeneity", "divide_scaling", "ddet_rel", "det_multiplicativity", "divide_roundtrip"
        )
        for key in ("cone_violation",) + residuals:
            assert getattr(empty, key) == 0.0
        if a.rank == 1:
            report = ma.check_algorithm(w, 20, np.random.default_rng(3))
            assert report.cone_violation == 0.0
            assert max(getattr(report, key) for key in residuals) <= 1e-14


def test_piecewise_algorithm_is_valid_but_not_homogeneous():
    a = alg.sym_real(2)
    w = ma.piecewise_det(alg.standard_frame(a))
    report = ma.check_algorithm(w, 40, np.random.default_rng(0))
    assert report.neutrality <= 1e-9
    assert report.cone_violation == 0.0
    assert report.ddet_rel <= 1e-8
    assert not report.homogeneous
    assert report.homogeneity > 0.01


def test_det_multiplicativity(rng):
    for a in ALGEBRAS:
        for w in all_algorithms(a):
            y = alg.random_cone_element(a, rng, 0.2, 5.0)
            x = alg.random_cone_element(a, rng, 0.2, 5.0)
            lhs = alg.determinant(ma.multiply(w, y, x))
            want = alg.determinant(y) * alg.determinant(x)
            assert lhs == pytest.approx(want, rel=1e-9)


def test_ddet_law(rng):
    for a in [alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)]:
        frame = alg.standard_frame(a)
        for w in (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame)):
            y = alg.random_cone_element(a, rng, 0.2, 5.0)
            dd = w(y).ddet()
            assert dd == pytest.approx(
                alg.determinant(y) ** (a.dim / a.rank), rel=1e-8
            )


def test_parse_algorithm_specs():
    a = alg.sym_real(2)
    assert ma.parse_algorithm("w1", a).kind == "w1"
    assert ma.parse_algorithm("w2", a).kind == "w2"
    wi = ma.parse_algorithm("interp:0.25", a)
    assert wi.kind == "interp" and wi.alpha == 0.25
    wk = ma.parse_algorithm("kext:w2:17", a)
    assert wk.kind == "kext" and wk.spec == "kext:w2:17"
    # the seeded rotation is reproducible
    wk2 = ma.parse_algorithm("kext:w2:17", a)
    x = alg.random_cone_element(a, np.random.default_rng(1))
    assert_allclose(wk(x).matrix, wk2(x).matrix)
    for bad in ("w3", "interp:x", "kext:w1", "kext:w1:seed"):
        with pytest.raises(ValidationError):
            ma.parse_algorithm(bad, a)


def batch_algorithms(a):
    rot = alg.random_automorphism_k(a, np.random.default_rng(7))
    rotated = alg.JordanFrame(tuple(rot.apply(c) for c in alg.standard_frame(a)))
    out = []
    for frame in (alg.standard_frame(a), rotated):
        out += all_algorithms(a, frame)
        out += [ma.k_extended(ma.w2(frame), rot), ma.piecewise_det(frame)]
    return out


@pytest.mark.parametrize("a", ALGEBRAS + [alg.sym_real(1)], ids=lambda a: a.name)
def test_apply_batch_and_solve_batch_are_inverse(a, rng):
    n = 12
    x = np.array([alg.random_cone_element(a, rng, 0.05, 3.0).coords for _ in range(n)])
    y = rng.standard_normal((n, a.dim))
    e = np.tile(alg.identity(a).coords, (n, 1))
    for w in batch_algorithms(a):
        assert_allclose(w.apply_batch(x, w.solve_batch(x, y)), y, atol=1e-10, err_msg=w.spec)
        assert_allclose(w.solve_batch(x, w.apply_batch(x, y)), y, atol=1e-10, err_msg=w.spec)
        assert_allclose(w.apply_batch(x, e), x, atol=1e-10, err_msg=w.spec)
        assert_allclose(w.solve_batch(x, x), e, atol=1e-10, err_msg=w.spec)
        for i in (0, n - 1):
            xi, yi = alg.Element(a, x[i]), alg.Element(a, y[i])
            assert_allclose(w.apply_batch(x, y)[i], ma.multiply(w, xi, yi).coords, atol=1e-10)
            assert_allclose(w.solve_batch(x, y)[i], ma.divide(w, xi, yi).coords, atol=1e-10)


def test_batch_maps_reject_points_outside_the_cone_and_bad_shapes(rng):
    for a in (alg.sym_real(2), alg.herm_complex(2), alg.lorentz(3)):
        good = np.array([alg.random_cone_element(a, rng).coords for _ in range(4)])
        bad = good.copy()
        bad[2] = -bad[2]
        for w in batch_algorithms(a):
            for method in (w.apply_batch, w.solve_batch):
                with pytest.raises(DomainError):
                    method(bad, good)
                with pytest.raises(ValidationError):
                    method(good, good[:3])
                with pytest.raises(ValidationError):
                    method(good[:2], good[:3])  # x must have one row or one per y row
                with pytest.raises(ValidationError):
                    method(good[0], good[0])
            for method in (w.at, w.matrices):
                with pytest.raises(DomainError):
                    method(bad)
                with pytest.raises(ValidationError):
                    method(good[0])
                with pytest.raises(ValidationError):
                    method(good[:, :-1])


def test_piecewise_batch_with_one_branch_empty(rng):
    a = alg.sym_real(2)
    w = ma.piecewise_det(alg.standard_frame(a))
    y = rng.standard_normal((3, a.dim))
    for low, high in ((2.0, 4.0), (0.1, 0.5)):  # det > 1 on every row, then on none
        x = np.array([alg.random_cone_element(a, rng, low, high).coords for _ in range(3)])
        want = [ma.divide(w, alg.Element(a, xi), alg.Element(a, yi)).coords for xi, yi in zip(x, y)]
        assert_allclose(w.solve_batch(x, y), want, atol=1e-12)


@pytest.mark.parametrize("a", [alg.sym_real(3), alg.herm_complex(3), alg.lorentz(4)], ids=lambda a: a.name)
def test_piecewise_one_row_x_solves_one_eigenvalue_problem(a, rng, monkeypatch):
    """A one-row x picks its branch once, on its own row, for the whole y batch."""
    w = ma.piecewise_det(alg.standard_frame(a))
    rows_seen = []
    eigenvalues = ma.batch_eigenvalues

    def counting(algebra, coords):
        rows_seen.append(len(coords))
        return eigenvalues(algebra, coords)

    y = rng.standard_normal((a.dim, a.dim))
    for low, high in ((2.0, 4.0), (0.1, 0.5)):  # det > 1, then det < 1
        x = alg.random_cone_points(a, 1, rng, low, high)
        want = [w.solve_batch(x, yi[None])[0] for yi in y]
        monkeypatch.setattr(ma, "batch_eigenvalues", counting)
        rows_seen.clear()
        got = w.solve_batch(x, y)
        monkeypatch.setattr(ma, "batch_eigenvalues", eigenvalues)
        assert rows_seen == [1]
        assert_allclose(got, want, atol=1e-12)
