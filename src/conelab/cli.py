"""Batch driver: load a JSON config, run named verification suites, emit reports.

Subcommands
-----------
``conelab run <config>``        run suites, one JSON report per suite plus a summary
``conelab decompose <config>``  recover Olkin-Baker parameters from an oracle spec
``conelab sample <config>``     draw from a configured distribution, write CSV

Exit codes: 0 all checks passed, 1 a suite or decomposition failed its
thresholds, 2 unusable configuration.  Reports depend only on (config, seed):
suites run sequentially and every random draw flows from the config seed, so
identical configs produce byte-identical report files.  The seed is an
integer >= 0.  The suites compare with their thresholds the residuals of the
library functions that own the identities.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    Points,
    axiom_residuals,
    batch_eigenvalues,
    herm_complex,
    identity,
    lorentz,
    norm,
    parse_algebra,
    random_cone_element,
    random_cone_points,
    random_element,
    spectral_residuals,
    standard_frame,
    sym_real,
)
from .algorithms import check_algorithm, parse_algorithm
from .algorithms import w1 as algorithms_w1, w2 as algorithms_w2
from .distributions import (
    RieszParams,
    WishartParams,
    in_domain_D,
    read_coords_csv,
    riesz_logpdf,
    riesz_model,
    riesz_normalization_quadrature,
    sample_riesz,
    save_samples_csv,
    wishart_logpdf,
    wishart_mean_sigmas,
    wishart_model,
    write_coords_csv,
)
from .errors import (
    ConelabError,
    ConfigError,
    FitError,
    InconsistencyError,
    ValidationError,
)
from .funceq import (
    GridSpec,
    delta_s_log,
    draw_cone_pairs,
    k_invariance_check,
    log_det_power,
    make_olkin_baker_instance,
    olkin_baker_decompose,
    pexider_fit,
    wlog_residual,
    zero_fn,
)
from .lukacs import bijection_residual, factorization_residual, independence_test, jacobian_residual
from .peirce import PowerExponent, peirce_identity_residuals, peirce_projectors
from .triangular import constant_power_residual, triangular_identity_residuals

SUITE_NAMES = (
    "algebra-axioms",
    "peirce",
    "triangular",
    "mult-alg",
    "distributions",
    "functional-eq",
    "lukacs",
)

DEFAULT_SAMPLES = {
    "algebra-axioms": 2000,
    "peirce": 200,
    "triangular": 200,
    "mult-alg": 100,
    "distributions": 20000,
    "functional-eq": 300,
    "lukacs": 2000,
}

DEFAULT_TOLERANCES = {
    "axioms": 1e-10,
    "peirce_identity": 1e-10,
    "triangular_roundtrip": 1e-9,
    "power_cocycle": 1e-9,
    "neutrality": 1e-9,
    "ddet": 1e-8,
    "logpdf_match": 1e-12,
    "quadrature_mass": 1e-3,
    "wlog": 1e-9,
    "wlog_counterexample": 0.01,
    "pexider": 1e-8,
    "bijection": 1e-10,
    "jacobian": 1e-6,
    "factorization": 1e-8,
    "factorization_mismatch": 0.01,
    "independence_p": 0.01,
    "mean_sigmas": 5.0,
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _sub_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator derived from the run seed and a stable label."""
    digest = hashlib.sha256(label.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))


def _run_seed(value) -> int:
    """The run seed: an integer >= 0, as ``SeedSequence`` takes no negative entropy."""
    if not isinstance(value, int) or value < 0:
        raise ConfigError(f"'seed' must be an integer >= 0 (no wall-clock seeding), got {value!r}")
    return value


def _algebra_from_config(value) -> AlgebraDescriptor:
    if isinstance(value, str):
        return parse_algebra(value)
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind == "sym_real":
            return sym_real(int(_number(value, "rank", "algebra")))
        if kind == "herm_complex":
            return herm_complex(int(_number(value, "rank", "algebra")))
        if kind == "lorentz":
            return lorentz(int(_number(value, "n", "algebra")))
        raise ConfigError(f"unknown algebra kind {kind!r}")
    raise ConfigError("algebra must be a string like 'sym_real(2)' or an object")


def load_config(path) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "seed" not in cfg:
        raise ConfigError("config requires an explicit integer 'seed'")
    _run_seed(cfg["seed"])
    return cfg


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_report(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj))


def _number(cfg: dict, key: str, where: str, default=None):
    """cfg[key] (``default`` if given and the key is absent), a finite number or list of them."""
    if key not in cfg and default is None:
        raise ConfigError(f"{where} requires {key!r}")
    value = cfg.get(key, default)
    try:
        finite = bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ConfigError(f"{where}.{key} must be finite numbers, got {value!r}")
    return value


def _count(cfg: dict, key: str, where: str, default=None) -> int:
    """cfg[key] (``default`` if given and the key is absent), a positive integer."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where}.{key} must be a positive integer, got {value!r}")
    return value


def _overrides(cfg: dict, key: str, defaults: dict) -> dict:
    """The object under cfg[key], keyed by names of ``defaults``; {} when absent."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be an object keyed by {', '.join(defaults)}")
    unknown = [name for name in value if name not in defaults]
    if unknown:
        raise ConfigError(f"unknown {key} keys {unknown}; valid keys: {', '.join(defaults)}")
    return value


def _element_from_config(cfg: dict, key: str, default: str, algebra, where: str) -> Element:
    """'e', 'minus_e' or a list of finite coordinates under cfg[key]."""
    value = cfg.get(key, default)
    if value == "e":
        return identity(algebra)
    if value == "minus_e":
        return -1.0 * identity(algebra)
    return Element(algebra, np.asarray(_number(cfg, key, where), dtype=float))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _check(value: float, threshold: float, comparison: str = "le") -> dict:
    passed = value <= threshold if comparison == "le" else value >= threshold
    return {
        "value": float(value),
        "threshold": float(threshold),
        "comparison": comparison,
        "passed": bool(passed),
    }


def suite_algebra_axioms(algebra, algorithm, rng, n, tol):
    checks = {name: _check(value, tol["axioms"]) for name, value in axiom_residuals(algebra, n, rng).items()}
    # the spectral calculus on a smaller sample
    for name, value in spectral_residuals(algebra, min(n, 200), rng).items():
        checks[name] = _check(value, 1e-9)
    return checks


def suite_peirce(algebra, algorithm, rng, n, tol):
    checks = {}
    frame = standard_frame(algebra)
    projs = peirce_projectors(frame[0])
    x = random_element(algebra, rng)
    total = projs[0.0].apply(x) + projs[0.5].apply(x) + projs[1.0].apply(x)
    checks["projection_completeness"] = _check(norm(total - x) / norm(x), 1e-12)
    for name, value in peirce_identity_residuals(frame, n, rng).items():
        checks[name] = _check(value, tol["peirce_identity"])
    checks["constant_power_det"] = _check(constant_power_residual(frame, min(n, 50), rng), 1e-10)
    return checks


def suite_triangular(algebra, algorithm, rng, n, tol):
    residuals = triangular_identity_residuals(standard_frame(algebra), n, rng)
    return {
        "roundtrip": _check(residuals["roundtrip"], tol["triangular_roundtrip"]),
        "power_cocycle": _check(residuals["power_cocycle"], tol["power_cocycle"]),
        "frobenius_unit_power": _check(residuals["frobenius_unit_power"], tol["power_cocycle"]),
        "box_nilpotency": _check(residuals["box_nilpotency"], 1e-10),
    }


def suite_mult_alg(algebra, algorithm, rng, n, tol):
    checks = {}
    report = check_algorithm(algorithm, n, rng)
    checks["neutrality"] = _check(report.neutrality, tol["neutrality"])
    checks["cone_preservation"] = _check(report.cone_violation, 0.0)
    checks["ddet_law"] = _check(report.ddet_rel, tol["ddet"])
    if algorithm.homogeneous:
        checks["homogeneity"] = _check(report.homogeneity, tol["neutrality"])
    checks["det_multiplicativity"] = _check(report.det_multiplicativity, tol["ddet"])
    checks["divide_roundtrip"] = _check(report.divide_roundtrip, tol["bijection"])
    return checks


def suite_distributions(algebra, algorithm, rng, n, tol):
    checks = {}
    frame = standard_frame(algebra)
    nd_ratio = algebra.dim / algebra.rank
    a = random_cone_element(algebra, rng, 0.8, 1.8)
    p = nd_ratio + 1.0 + float(rng.uniform(0.0, 1.0))
    wp = WishartParams(p, a)
    rp = wp.as_riesz(frame)
    points = Points(algebra, random_cone_points(algebra, 50, rng, 0.2, 5.0))
    match = wishart_logpdf(wp, points) - riesz_logpdf(rp, points)
    checks["wishart_equals_riesz"] = _check(np.max(np.abs(match)), tol["logpdf_match"])

    coords = sample_riesz(rp, n, rng).coords
    checks["wishart_mean"] = _check(wishart_mean_sigmas(coords, p, a), tol["mean_sigmas"])

    lam_min = float(batch_eigenvalues(algebra, coords[:200]).min())
    checks["draws_in_cone"] = _check(max(0.0, -lam_min), 0.0)

    if algebra.kind == "sym_real" and algebra.rank == 2:
        svec = PowerExponent.of((nd_ratio + 1.3, nd_ratio + 0.1))
        riesz = RieszParams(svec, a, frame)
        mass, spot = riesz_normalization_quadrature(riesz, 48, 48, 32)
        checks["quadrature_mass"] = _check(abs(mass - 1.0), tol["quadrature_mass"])
        checks["quadrature_spot"] = _check(spot, 1e-10)

    u = random_element(algebra, rng, (0.05, 0.95))
    checks["domain_membership"] = _check(0.0 if in_domain_D(u) else 1.0, 0.0)
    checks["identity_not_in_domain"] = _check(
        1.0 if in_domain_D(identity(algebra)) else 0.0, 0.0
    )
    return checks


def suite_functional_eq(algebra, algorithm, rng, n, tol):
    checks = {}
    frame = algorithm.frame if algorithm.frame is not None else standard_frame(algebra)
    pairs = draw_cone_pairs(algebra, n, rng)
    f_det = log_det_power(0.8, algebra)
    checks["logdet_residual"] = _check(
        wlog_residual(f_det, algorithm, pairs), tol["wlog"]
    )
    if algebra.rank >= 2:
        svec = np.linspace(2.0, 1.0, algebra.rank)
        f_s = delta_s_log(svec, frame)
        checks["delta_s_vs_triangular"] = _check(
            wlog_residual(f_s, algorithms_w2(frame), pairs), tol["wlog"]
        )
        checks["delta_s_vs_quadratic"] = _check(
            wlog_residual(f_s, algorithms_w1(algebra), pairs),
            tol["wlog_counterexample"],
            comparison="ge",
        )
        rep = k_invariance_check(f_s, algebra, rng, min(n, 100))
        checks["delta_s_not_k_invariant"] = _check(
            rep.k_residual, tol["wlog_counterexample"], comparison="ge"
        )
    rep_det = k_invariance_check(f_det, algebra, rng, min(n, 100))
    checks["logdet_k_invariant"] = _check(rep_det.k_residual, tol["wlog"])
    checks["logdet_det_functional"] = _check(rep_det.equal_det_residual, tol["wlog"])

    lam = random_element(algebra, rng)
    lam_row = algebra.inner_scale * lam.coords
    alpha, beta = float(rng.normal()), float(rng.normal())
    xs, ys = draw_cone_pairs(algebra, max(algebra.dim + 2, 40), rng, 0.1, 10.0)
    fit = pexider_fit(
        algebra,
        (xs, xs @ lam_row + alpha),
        (ys, ys @ lam_row + beta),
        (xs + ys, (xs + ys) @ lam_row + alpha + beta),
    )
    recovery = max(norm(fit.lam - lam), abs(fit.alpha - alpha), abs(fit.beta - beta))
    checks["pexider_recovery"] = _check(recovery, tol["pexider"])
    return checks


def suite_lukacs(algebra, algorithm, rng, n, tol):
    checks = {}
    frame = algorithm.frame if algorithm.frame is not None else standard_frame(algebra)
    # the quotient map and its inverse (u, v) -> (w(v) u, v - w(v) u)
    x, y = draw_cone_pairs(algebra, min(n, 100), rng)
    checks["bijection"] = _check(bijection_residual(algorithm, x, y), tol["bijection"])
    checks["jacobian"] = _check(jacobian_residual(algorithm, 5, rng, 0.3, 3.0), tol["jacobian"])

    # matched laws of X and Y, and a Y whose scale is shifted from the one of X
    a = random_cone_element(algebra, rng, 0.8, 1.6)
    a_shift = a + 0.1 * identity(algebra)
    nd_ratio = algebra.dim / algebra.rank
    if algorithm.kind == "w2":
        shifts = 0.5 * algebra.peirce_d * np.arange(algebra.rank)
        s1 = PowerExponent.of(shifts + nd_ratio + 0.8)
        s2 = PowerExponent.of(shifts + nd_ratio + 0.3)
        model_x, model_y, model_bad = (
            riesz_model(RieszParams(s, scale, frame), algorithm)
            for s, scale in ((s1, a), (s2, a), (s2, a_shift))
        )
    else:
        model_x, model_y, model_bad = (
            wishart_model(WishartParams(nd_ratio + p, scale), algorithm, frame)
            for p, scale in ((1.2, a), (0.7, a), (0.7, a_shift))
        )
    pairs = draw_cone_pairs(algebra, 50, rng)
    checks["factorization"] = _check(
        factorization_residual(model_x, model_y, algorithm, pairs), tol["factorization"]
    )
    checks["factorization_mismatch"] = _check(
        factorization_residual(model_x, model_bad, algorithm, pairs, strict=False),
        tol["factorization_mismatch"],
        comparison="ge",
    )

    sx = model_x.sample(n, rng)
    sy = model_y.sample(n, rng)
    report = independence_test(sx, sy, algorithm, n_perm=199, rng=rng, max_points=1024)
    checks["independence_p"] = _check(
        report.p_value, tol["independence_p"], comparison="ge"
    )
    details = {
        "experiment": "quotient-sum-independence",
        "statistic": report.statistic,
        "p_value": report.p_value,
        "n": report.n,
        "n_used": report.n_used,
        "n_perm": report.n_perm,
        "residuals": {
            "bijection": checks["bijection"]["value"],
            "jacobian": checks["jacobian"]["value"],
            "factorization": checks["factorization"]["value"],
            "factorization_mismatch": checks["factorization_mismatch"]["value"],
        },
    }
    return checks, details


SUITES = {
    "algebra-axioms": suite_algebra_axioms,
    "peirce": suite_peirce,
    "triangular": suite_triangular,
    "mult-alg": suite_mult_alg,
    "distributions": suite_distributions,
    "functional-eq": suite_functional_eq,
    "lukacs": suite_lukacs,
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_run(cfg: dict, out_dir: Path) -> int:
    algebra = _algebra_from_config(cfg.get("algebra", "sym_real(2)"))
    algorithm = parse_algorithm(cfg.get("algorithm", "w1"), algebra)
    suites = cfg.get("suites", list(SUITE_NAMES))
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ConfigError(
            f"unknown suites {unknown}; valid suites: {', '.join(SUITE_NAMES)}"
        )
    seed = cfg["seed"]
    samples = _overrides(cfg, "samples", DEFAULT_SAMPLES)
    samples_cfg = dict(DEFAULT_SAMPLES)
    samples_cfg.update({name: _count(samples, name, "samples") for name in samples})
    tol = dict(DEFAULT_TOLERANCES)
    for name, value in _overrides(cfg, "tolerances", DEFAULT_TOLERANCES).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < np.inf:
            raise ConfigError(f"tolerances.{name} must be a finite number >= 0, got {value!r}")
        tol[name] = value

    summary = {
        "algebra": algebra.name,
        "algorithm": algorithm.spec,
        "seed": seed,
        "suites": {},
    }
    all_passed = True
    for name in suites:
        rng = _sub_rng(seed, f"suite:{name}")
        result = SUITES[name](algebra, algorithm, rng, samples_cfg[name], tol)
        checks, details = result if isinstance(result, tuple) else (result, None)
        passed = all(c["passed"] for c in checks.values())
        all_passed &= passed
        report = {
            "suite": name,
            "algebra": algebra.name,
            "algorithm": algorithm.spec,
            "seed": seed,
            "samples": samples_cfg[name],
            "passed": passed,
            "checks": checks,
        }
        if details is not None:
            report["details"] = details
        write_report(out_dir / f"{name}.json", report)
        summary["suites"][name] = passed
        status = "pass" if passed else "FAIL"
        print(f"[{status}] {name}")
        if not passed:
            for cname, c in checks.items():
                if not c["passed"]:
                    print(
                        f"    {cname}: value {c['value']:.6e} "
                        f"{'<=' if c['comparison'] == 'le' else '>='} "
                        f"{c['threshold']:.6e} violated"
                    )
    summary["all_passed"] = all_passed
    write_report(out_dir / "summary.json", summary)
    return 0 if all_passed else 1


def _recording(fn, records, role):
    def wrapped(coords: np.ndarray) -> np.ndarray:
        values = fn(coords)
        records.extend((role, row, float(value)) for row, value in zip(coords.copy(), values))
        return values

    return wrapped


def _tabulated(rows, role):
    table = {}
    for r, coords, value in rows:
        if r == role:
            table[tuple(np.round(coords, 12))] = value

    def lookup(coords: np.ndarray) -> np.ndarray:
        try:
            return np.array([table[tuple(row)] for row in np.round(coords, 12)], dtype=float)
        except KeyError:
            raise InconsistencyError(
                f"tabulated oracle {role!r} has no value at a requested grid point; "
                "the CSV must come from the same grid plan (algebra, seed, sizes)"
            )

    return lookup


def _oracle_csv_rows(path, algebra):
    try:
        header, rows = read_coords_csv(path)
    except ValidationError as exc:
        raise ConfigError(f"oracle CSV: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"oracle CSV: cannot read {path}: {exc.strerror}") from None
    if len(header) != 2 + algebra.dim:
        raise ConfigError(
            f"oracle CSV must have columns role,c0..c{algebra.dim - 1},value"
        )
    return [(role, values[:-1], float(values[-1])) for role, values in rows]


def cmd_decompose(cfg: dict, out_dir: Path) -> int:
    algebra = _algebra_from_config(cfg.get("algebra", "sym_real(2)"))
    algorithm = parse_algorithm(cfg.get("algorithm", "w1"), algebra)
    oracle_cfg = cfg.get("oracle")
    if not isinstance(oracle_cfg, dict) or "family" not in oracle_cfg:
        raise ConfigError("decompose requires an 'oracle' object with a 'family'")
    grid_cfg = oracle_cfg.get("grid", {})
    grid = GridSpec(
        n_points=_count(grid_cfg, "n_points", "oracle.grid", 2000),
        low=float(_number(grid_cfg, "low", "oracle.grid", 0.1)),
        high=float(_number(grid_cfg, "high", "oracle.grid", 10.0)),
        seed=int(_number(grid_cfg, "seed", "oracle.grid", cfg["seed"])),
        tol=float(_number(grid_cfg, "tol", "oracle.grid", 1e-6)),
    )
    family = oracle_cfg["family"]
    frame = algorithm.frame if algorithm.frame is not None else standard_frame(algebra)
    if family == "wishart-form":
        lam = _element_from_config(oracle_cfg, "lambda", "minus_e", algebra, "oracle")
        kappa = _number(oracle_cfg, "kappa", "oracle", [0.7, 1.3])
        if np.shape(kappa) != (2,):
            raise ConfigError(f"oracle.kappa must be a list of two finite numbers, got {kappa!r}")
        e_fn = log_det_power(float(kappa[0]), algebra)
        f_fn = log_det_power(float(kappa[1]), algebra)
    elif family == "riesz-form":
        lam = _element_from_config(oracle_cfg, "lambda", "minus_e", algebra, "oracle")
        e_fn = delta_s_log(_number(oracle_cfg, "s1", "oracle"), frame)
        f_fn = delta_s_log(_number(oracle_cfg, "s2", "oracle"), frame)
    elif family == "zero":
        lam = Element(algebra, np.zeros(algebra.dim))
        e_fn = zero_fn(algebra)
        f_fn = zero_fn(algebra)
    elif family == "csv":
        if "path" not in oracle_cfg:
            raise ConfigError("the csv oracle family requires a 'path'")
        rows = _oracle_csv_rows(oracle_cfg["path"], algebra)
        oracles = tuple(_tabulated(rows, role) for role in "abcd")
        dec = olkin_baker_decompose(*oracles, algorithm, grid)
        payload = dec.as_dict()
        payload["algorithm"] = algorithm.spec
        write_report(out_dir / "decomposition.json", payload)
        print("[pass] decompose (csv oracle)")
        return 0
    else:
        raise ConfigError(f"unknown oracle family {family!r}")
    c1 = float(_number(oracle_cfg, "c1", "oracle", 0.0))
    c2 = float(_number(oracle_cfg, "c2", "oracle", 0.0))
    a, b, c, d = make_olkin_baker_instance(lam, e_fn, f_fn, algorithm, c1=c1, c2=c2)
    records = []
    dump_path = cfg.get("dump_oracle")
    if dump_path:
        a, b, c, d = (_recording(fn, records, role) for fn, role in zip((a, b, c, d), "abcd"))
    dec = olkin_baker_decompose(a, b, c, d, algorithm, grid)
    if dump_path:
        header = ["role"] + [f"c{i}" for i in range(algebra.dim)] + ["value"]
        write_coords_csv(
            dump_path, header, ((role, [*coords, value]) for role, coords, value in records)
        )
    payload = dec.as_dict()
    payload["algorithm"] = algorithm.spec
    payload["planted"] = {
        "lambda": [float(v) for v in lam.coords],
        "e_fn": e_fn.form_dict(),
        "f_fn": f_fn.form_dict(),
        "c1": c1,
        "c2": c2,
    }
    write_report(out_dir / "decomposition.json", payload)
    print("[pass] decompose")
    return 0


def cmd_sample(cfg: dict, out_dir: Path) -> int:
    algebra = _algebra_from_config(cfg.get("algebra", "sym_real(2)"))
    dist = cfg.get("distribution")
    if not isinstance(dist, dict) or "type" not in dist:
        raise ConfigError("sample requires a 'distribution' object with a 'type'")
    n = _count(cfg, "n", "config", 1000)
    frame = standard_frame(algebra)
    a = _element_from_config(dist, "a", "e", algebra, "distribution")
    if dist["type"] == "wishart":
        params = WishartParams(float(_number(dist, "p", "distribution")), a).as_riesz(frame)
    elif dist["type"] == "riesz":
        params = RieszParams(PowerExponent.of(_number(dist, "s", "distribution")), a, frame)
    else:
        raise ConfigError(f"unknown distribution type {dist['type']!r}")
    rng = _sub_rng(cfg["seed"], "sample")
    draws = sample_riesz(params, n, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / cfg.get("output", "draws.csv")
    save_samples_csv(path, draws)
    print(f"[pass] sample ({n} draws -> {path})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="verification suites for symmetric-cone computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run verification suites from a config"),
        ("decompose", "recover Olkin-Baker parameters from an oracle spec"),
        ("sample", "draw from a configured cone distribution"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="path to a JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default=None, help="override output directory")
        if name == "run":
            cmd.add_argument(
                "--suite",
                action="append",
                default=None,
                help="run only this suite (repeatable)",
            )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _run_seed(args.seed)
        if getattr(args, "suite", None):
            cfg["suites"] = args.suite
        out_dir = Path(args.out or cfg.get("out_dir", "reports"))
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "decompose":
            return cmd_decompose(cfg, out_dir)
        return cmd_sample(cfg, out_dir)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, FitError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except ConelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
