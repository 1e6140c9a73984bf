"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also asserts its thresholds so the suite fails loudly.
Worst values are reduced with ``np.max`` / ``np.min``, which keep a NaN, so a
NaN residual fails its gate (the built-in ``max(0.0, nan)`` is 0.0).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import cli
from conelab import distributions as dist
from conelab import funceq as fe
from conelab import lukacs as lk
from conelab import peirce
from conelab import triangular as tri
from conelab.peirce import PowerExponent

AXIOM_ALGEBRAS = [
    alg.sym_real(2),
    alg.sym_real(3),
    alg.sym_real(5),
    alg.sym_real(8),
    alg.herm_complex(2),
    alg.herm_complex(4),
    alg.herm_complex(6),
    alg.lorentz(2),
    alg.lorentz(4),
    alg.lorentz(9),
    alg.lorentz(16),
]

CORE_ALGEBRAS = [alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)]


def verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_algebra_axioms():
    start = time.time()
    values = []
    for a in AXIOM_ALGEBRAS:
        rng = np.random.default_rng(101)
        residuals = alg.axiom_residuals(a, 10_000, rng) | alg.spectral_residuals(a, 200, rng)
        values.extend(residuals.values())
    worst = np.max(values)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed <= 30.0
    verdict(
        1,
        ok,
        f"axioms+Jordan identity over 1e4 triples and spectral calculus over 200 rows x "
        f"{len(AXIOM_ALGEBRAS)} algebras: max residual {worst:.3e} (<=1e-10), {elapsed:.1f}s (<=30s)",
    )


def test_criterion_02_dimension_and_peirce_identities():
    # every supported descriptor; AlgebraDescriptor raises ValidationError on a wrong dim
    every = (
        [alg.sym_real(r) for r in range(1, 9)]
        + [alg.herm_complex(r) for r in range(1, 7)]
        + [alg.lorentz(n) for n in range(2, 17)]
    )
    rng = np.random.default_rng(202)
    per_algebra = 1000 // len(CORE_ALGEBRAS) + 1
    residuals = [
        peirce.peirce_identity_residuals(alg.standard_frame(a), per_algebra, rng)
        for a in CORE_ALGEBRAS
    ]
    sq_worst = np.max([r["square_identity"] for r in residuals])
    cross_worst = np.max([r["cross_norm_identity"] for r in residuals])
    samples = per_algebra * len(CORE_ALGEBRAS)
    ok = sq_worst <= 1e-10 and cross_worst <= 1e-10
    verdict(
        2,
        ok,
        f"{len(every)} descriptors built; Peirce square/cross "
        f"identities on {samples} samples: {sq_worst:.3e}, {cross_worst:.3e} (<=1e-10)",
    )


def test_criterion_03_triangular_roundtrip_and_power_identities():
    rng = np.random.default_rng(303)
    per_algebra = 1000 // len(CORE_ALGEBRAS) + 1
    residuals = [
        tri.triangular_identity_residuals(alg.standard_frame(a), per_algebra, rng)
        for a in CORE_ALGEBRAS
    ]
    roundtrip, cocycle, tau_unit = (
        np.max([r[key] for r in residuals])
        for key in ("roundtrip", "power_cocycle", "frobenius_unit_power")
    )
    ok = roundtrip <= 1e-9 and cocycle <= 1e-9 and tau_unit <= 1e-9
    verdict(
        3,
        ok,
        f"triangular roundtrip {roundtrip:.3e}, power cocycle {cocycle:.3e}, "
        f"unit powers {tau_unit:.3e} (all <=1e-9, 1e3 samples)",
    )


def test_criterion_04_endomorphism_determinant_and_jacobian():
    start = time.time()
    rng = np.random.default_rng(404)
    ddet = []
    for a in CORE_ALGEBRAS:
        frame = alg.standard_frame(a)
        for w in (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame)):
            ddet.append(ma.check_algorithm(w, 30, rng).ddet_rel)
    jac = []
    for a in (alg.sym_real(2), alg.lorentz(3), alg.herm_complex(2)):
        frame = alg.standard_frame(a)
        for w in (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame)):
            jac.append(lk.jacobian_residual(w, 17, rng, 0.4, 2.5))
    ddet_worst, jac_worst = np.max(ddet), np.max(jac)
    points = 17 * len(jac)
    elapsed = time.time() - start
    ok = ddet_worst <= 1e-8 and jac_worst <= 1e-6 and elapsed <= 120.0 and points >= 100
    verdict(
        4,
        ok,
        f"DDet(w(y)) law {ddet_worst:.3e} (<=1e-8); Jacobian FD at {points} points "
        f"{jac_worst:.3e} (<=1e-6); {elapsed:.1f}s (<=120s)",
    )


def test_criterion_05_logarithmic_cauchy_dichotomy():
    rng = np.random.default_rng(505)
    solutions = []
    counters = []
    for a in (alg.sym_real(2), alg.herm_complex(2), alg.lorentz(4)):
        frame = alg.standard_frame(a)
        pairs = fe.draw_cone_pairs(a, 150, rng)
        f_det = fe.log_det_power(0.8, a)
        k = alg.random_automorphism_k(a, rng)
        for w in (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame), ma.k_extended(ma.w1(a), k)):
            solutions.append(fe.wlog_residual(f_det, w, pairs))
        svec = np.linspace(2.0, 1.0, a.rank)
        f_s = fe.delta_s_log(svec, frame)
        solutions.append(fe.wlog_residual(f_s, ma.w2(frame), pairs))
        counters.append(fe.wlog_residual(f_s, ma.w1(a), pairs))
    solution_worst, counter_best = np.max(solutions), np.min(counters)
    ok = solution_worst <= 1e-9 and counter_best > 0.01
    verdict(
        5,
        ok,
        f"log-det/minor-power solutions residual {solution_worst:.3e} (<=1e-9); "
        f"mismatched pairing residual {counter_best:.3e} (>0.01)",
    )


NAN = float("nan")


def _nan_on_the_last_algebra(owner, name, key, *others):
    """A patch of owner.name: key reads NaN on the last of CORE_ALGEBRAS, every other residual 0.

    On the first one a NaN would survive even the built-in max.
    """

    def residuals(frame, *args):
        return {key: NAN if frame.algebra == CORE_ALGEBRAS[-1] else 0.0} | dict.fromkeys(others, 0.0)

    return lambda mp: mp.setattr(owner, name, residuals)


def _nan_ddet(monkeypatch):
    check = ma.check_algorithm
    monkeypatch.setattr(ma, "check_algorithm", lambda *args: dataclasses.replace(check(*args), ddet_rel=NAN))


def _nan_wlog(monkeypatch, counter):
    """NaN from wlog_residual on the mismatched pairing (counter) or on w2's solutions."""
    minor_powers = []
    delta_s_log, wlog_residual = fe.delta_s_log, fe.wlog_residual

    def recorded(*args):
        minor_powers.append(delta_s_log(*args))
        return minor_powers[-1]

    def residual(f, w, pairs):
        if counter:
            hit = w.kind == "w1" and any(f is g for g in minor_powers)
        else:
            hit = w.kind == "w2"
        return NAN if hit else wlog_residual(f, w, pairs)

    monkeypatch.setattr(fe, "delta_s_log", recorded)
    monkeypatch.setattr(fe, "wlog_residual", residual)


# (criterion number, its test, a patch that makes one of its residuals NaN)
NAN_RESIDUALS = {
    "axioms": (
        1,
        test_criterion_01_algebra_axioms,
        lambda mp: mp.setattr(alg, "axiom_residuals", lambda *args: {"jordan_identity": NAN}),
    ),
    "peirce": (
        2,
        test_criterion_02_dimension_and_peirce_identities,
        _nan_on_the_last_algebra(peirce, "peirce_identity_residuals", "square_identity", "cross_norm_identity"),
    ),
    "triangular": (
        3,
        test_criterion_03_triangular_roundtrip_and_power_identities,
        _nan_on_the_last_algebra(
            tri, "triangular_identity_residuals", "power_cocycle", "roundtrip", "frobenius_unit_power"
        ),
    ),
    "ddet": (4, test_criterion_04_endomorphism_determinant_and_jacobian, _nan_ddet),
    "jacobian": (
        4,
        test_criterion_04_endomorphism_determinant_and_jacobian,
        lambda mp: mp.setattr(lk, "jacobian_residual", lambda *args: NAN),
    ),
    "wlog-solution": (5, test_criterion_05_logarithmic_cauchy_dichotomy, lambda mp: _nan_wlog(mp, False)),
    "wlog-counter": (5, test_criterion_05_logarithmic_cauchy_dichotomy, lambda mp: _nan_wlog(mp, True)),
}


@pytest.mark.parametrize("case", list(NAN_RESIDUALS))
def test_a_nan_residual_fails_its_criterion(monkeypatch, case):
    """np.max / np.min keep a NaN, where max(0.0, nan) and min(inf, nan) would drop it."""
    number, criterion, make_nan = NAN_RESIDUALS[case]
    make_nan(monkeypatch)
    with pytest.raises(AssertionError, match=rf"criterion {number}: .*nan"):
        criterion()


def test_criterion_06_olkin_baker_recovery():
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    lam = -1.0 * alg.identity(a)
    results = []
    for label, w, e_fn, f_fn, want in (
        (
            "wishart-form/w1",
            ma.w1(a),
            fe.log_det_power(0.7, a),
            fe.log_det_power(1.3, a),
            {"kappa": (0.7, 1.3)},
        ),
        (
            "riesz-form/w2",
            ma.w2(frame),
            fe.delta_s_log((2.0, 1.0), frame),
            fe.delta_s_log((1.5, 0.5), frame),
            {"s": ((2.0, 1.0), (1.5, 0.5))},
        ),
    ):
        oracles = fe.make_olkin_baker_instance(lam, e_fn, f_fn, w, c1=0.1, c2=-0.2)
        start = time.time()
        dec = fe.olkin_baker_decompose(*oracles, w, fe.GridSpec(n_points=2000, seed=606))
        elapsed = time.time() - start
        lam_err = alg.norm(dec.lam - lam)
        if "kappa" in want:
            param_err = max(
                abs(dec.e_fn.params["kappa"] - want["kappa"][0]),
                abs(dec.f_fn.params["kappa"] - want["kappa"][1]),
            )
        else:
            param_err = max(
                float(np.max(np.abs(np.array(dec.e_fn.params["s"]) - want["s"][0]))),
                float(np.max(np.abs(np.array(dec.f_fn.params["s"]) - want["s"][1]))),
            )
        results.append((label, lam_err, param_err, dec.constant_defect, elapsed))
    ok = all(
        lam_err <= 1e-3 and param_err <= 1e-3 and defect <= 1e-3 and elapsed <= 60.0
        for _, lam_err, param_err, defect, elapsed in results
    )
    detail = "; ".join(
        f"{label}: lambda {lam_err:.2e}, params {param_err:.2e}, "
        f"constants {defect:.2e}, {elapsed:.1f}s"
        for label, lam_err, param_err, defect, elapsed in results
    )
    verdict(6, ok, detail + " (all <=1e-3, <=60s per instance, 2000-point grid)")


@pytest.mark.slow
def test_criterion_07_independence_monte_carlo():
    start = time.time()
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    wq = ma.w1(a)
    wt = ma.w2(frame)
    scale = alg.from_matrix(a, np.array([[1.2, 0.2], [0.2, 0.9]]))
    shifted = alg.from_matrix(a, scale.to_matrix() + 0.5 * np.eye(2))
    p_deg = 2.5
    matched_pass = 0
    mismatch_pass = 0
    n_reps = 25
    for rep in range(n_reps):
        root = np.random.SeedSequence([707, rep])
        rng_x, rng_y, rng_t = [np.random.default_rng(s) for s in root.spawn(3)]
        # matched Wishart through the quadratic algorithm
        mx = dist.wishart_model(dist.WishartParams(p_deg, scale), wq)
        my = dist.wishart_model(dist.WishartParams(3.0, scale), wq)
        rep_w = lk.independence_test(
            mx.sample(5000, rng_x), my.sample(5000, rng_y), wq,
            n_perm=199, rng=rng_t, max_points=1024,
        )
        matched_pass += rep_w.p_value > 0.01
        # matched Riesz through the triangular algorithm
        r1 = dist.riesz_model(dist.RieszParams(PowerExponent.of((3.0, 1.0)), scale, frame), wt)
        r2 = dist.riesz_model(dist.RieszParams(PowerExponent.of((2.0, 1.3)), scale, frame), wt)
        rep_r = lk.independence_test(
            r1.sample(5000, rng_x), r2.sample(5000, rng_y), wt,
            n_perm=199, rng=rng_t, max_points=1024,
        )
        matched_pass += rep_r.p_value > 0.01
        # unequal scale parameters must be rejected (two repetitions to match count)
        my_bad = dist.wishart_model(dist.WishartParams(p_deg, shifted), wq)
        for rng_m in root.spawn(2):
            rng_m = np.random.default_rng(rng_m)
            rep_m = lk.independence_test(
                mx.sample(5000, rng_x), my_bad.sample(5000, rng_m), wq,
                n_perm=199, rng=rng_t, max_points=1024,
            )
            mismatch_pass += rep_m.p_value < 0.01
    elapsed = time.time() - start
    ok = matched_pass >= 48 and mismatch_pass >= 48 and elapsed <= 300.0
    verdict(
        7,
        ok,
        f"matched models: {matched_pass}/50 with p>0.01; shifted scale: "
        f"{mismatch_pass}/50 with p<0.01; n=5000, {elapsed:.0f}s (<=300s)",
    )


def test_criterion_08_sampler_validity():
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    scale = alg.from_matrix(a, np.array([[1.5, 0.3], [0.3, 1.2]]))
    p_deg = 2.3
    params = dist.WishartParams(p_deg, scale).as_riesz(frame)
    draws = dist.sample_riesz(params, 100_000, np.random.default_rng(808))
    sigmas = dist.wishart_mean_sigmas(draws.coords, p_deg, scale)
    riesz = dist.RieszParams(PowerExponent.of((2.8, 1.6)), scale, frame)
    mass, spot = dist.riesz_normalization_quadrature(riesz, 48, 48, 32)
    ok = sigmas <= 4.0 and abs(mass - 1.0) <= 1e-3 and spot <= 1e-10
    verdict(
        8,
        ok,
        f"Wishart mean within {sigmas:.2f} standard errors at n=1e5 (<=4); "
        f"rank-2 density mass {mass:.6f} (within 1e-3 of 1)",
    )


@pytest.mark.slow
def test_criterion_09_rotation_invariance_dichotomy():
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    scale = alg.from_matrix(a, np.array([[1.2, 0.2], [0.2, 0.9]]))
    wq = ma.w1(a)
    mx = dist.wishart_model(dist.WishartParams(2.5, scale), wq)
    my = dist.wishart_model(dist.WishartParams(3.0, scale), wq)
    rep_w = lk.k_invariant_quotient_check(
        mx, my, wq, np.random.default_rng(909), n=5000,
        n_rotations=20, n_perm=199, max_points=1250,
    )
    wt = ma.w2(frame)
    rz = dist.riesz_model(dist.RieszParams(PowerExponent.of((3.0, 1.0)), scale, frame), wt)
    rep_r = lk.k_invariant_quotient_check(
        rz, rz, wt, np.random.default_rng(910), n=5000,
        n_rotations=20, n_perm=199, max_points=1250,
    )
    ok = rep_w.n_reject <= 2 and rep_r.n_reject >= 14
    verdict(
        9,
        ok,
        f"rotation invariance at p<0.01, 20 rotations, n=5000: quadratic/Wishart "
        f"rejects {rep_w.n_reject}/20 (<=2), triangular/Riesz rejects "
        f"{rep_r.n_reject}/20 (>=14)",
    )


def test_criterion_10_cli_reports_reproducible(tmp_path):
    cfg = {
        "algebra": "sym_real(2)",
        "algorithm": "w1",
        "suites": list(cli.SUITE_NAMES),
        "seed": 1010,
        "samples": {
            "algebra-axioms": 500,
            "peirce": 60,
            "triangular": 60,
            "mult-alg": 30,
            "distributions": 4000,
            "functional-eq": 80,
            "lukacs": 600,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    status1 = cli.main(["run", str(cfg_path), "--out", str(out1)])
    status2 = cli.main(["run", str(cfg_path), "--out", str(out2)])
    names = [f"{s}.json" for s in cli.SUITE_NAMES] + ["summary.json"]
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    ok = status1 == 0 and status2 == 0 and identical
    verdict(
        10,
        ok,
        f"two CLI runs, exit codes ({status1}, {status2}); "
        f"{len(names)} report files byte-identical: {identical}",
    )
