import csv
import hashlib
import json

import numpy as np
import pytest

from conelab import algebra as alg
from conelab import cli
from conelab.errors import ConfigError


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "algebra": "sym_real(2)",
        "algorithm": "w1",
        "suites": ["algebra-axioms", "peirce", "triangular"],
        "seed": 42,
        "samples": {"algebra-axioms": 500, "peirce": 60, "triangular": 60},
        "out_dir": str(tmp_path / "reports"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# every check of each suite; sym_real(2) with w1 runs the conditional ones too
# (homogeneity, the rank-2 quadrature and the rank >= 2 Delta_s checks)
SUITE_CHECKS = {
    "algebra-axioms": {
        "commutativity", "form_associativity", "inverse_involution", "jordan_identity", "neutrality",
        "spectral_reconstruction",
    },
    "peirce": {
        "constant_power_det", "cross_norm_identity", "multiplication_table", "projection_completeness",
        "square_identity",
    },
    "triangular": {"box_nilpotency", "frobenius_unit_power", "power_cocycle", "roundtrip"},
    "mult-alg": {
        "cone_preservation", "ddet_law", "det_multiplicativity", "divide_roundtrip", "homogeneity", "neutrality",
    },
    "distributions": {
        "domain_membership", "draws_in_cone", "identity_not_in_domain", "quadrature_mass", "quadrature_spot",
        "wishart_equals_riesz", "wishart_mean",
    },
    "functional-eq": {
        "delta_s_not_k_invariant", "delta_s_vs_quadratic", "delta_s_vs_triangular", "logdet_det_functional",
        "logdet_k_invariant", "logdet_residual", "pexider_recovery",
    },
    "lukacs": {"bijection", "factorization", "factorization_mismatch", "independence_p", "jacobian"},
}


def test_run_all_suites_pass(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        suites=list(cli.SUITE_NAMES),
        samples={
            "algebra-axioms": 500,
            "peirce": 60,
            "triangular": 60,
            "mult-alg": 30,
            "distributions": 4000,
            "functional-eq": 80,
            "lukacs": 600,
        },
    )
    status = cli.main(["run", str(cfg)])
    assert status == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == len(cli.SUITE_NAMES)
    reports = tmp_path / "reports"
    summary = json.loads((reports / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert set(summary["suites"]) == set(cli.SUITE_NAMES)
    for name in cli.SUITE_NAMES:
        report = json.loads((reports / f"{name}.json").read_text())
        assert report["passed"] is True
        assert report["seed"] == 42
        assert set(report["checks"]) == SUITE_CHECKS[name], name


def test_run_reports_are_byte_identical(tmp_path):
    cfg1 = write_config(tmp_path, name="c1.json", out_dir=str(tmp_path / "r1"))
    cfg2 = write_config(tmp_path, name="c2.json", out_dir=str(tmp_path / "r2"))
    assert cli.main(["run", str(cfg1)]) == 0
    assert cli.main(["run", str(cfg2)]) == 0
    for name in ("algebra-axioms", "peirce", "triangular", "summary"):
        b1 = (tmp_path / "r1" / f"{name}.json").read_bytes()
        b2 = (tmp_path / "r2" / f"{name}.json").read_bytes()
        assert b1 == b2


# per command: config overrides, and the files it writes
COMMANDS = {
    "run": (
        {"suites": ["algebra-axioms", "lukacs"], "samples": {"algebra-axioms": 200, "lukacs": 400}},
        ["algebra-axioms.json", "lukacs.json", "summary.json"],
    ),
    "sample": ({"n": 200, "distribution": {"type": "riesz", "s": [2.0, 1.5], "a": "e"}}, ["draws.csv"]),
    "decompose": ({"oracle": {"family": "zero", "grid": {"n_points": 200, "seed": 3}}}, ["decomposition.json"]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_conelab_threads_is_no_longer_read(tmp_path, monkeypatch, command):
    """A CONELAB_THREADS value that was once a usage error changes neither the status nor the bytes."""
    overrides, outputs = COMMANDS[command]
    monkeypatch.delenv("CONELAB_THREADS", raising=False)
    for run, value in (("r1", None), ("r2", "many")):
        if value is not None:
            monkeypatch.setenv("CONELAB_THREADS", value)
        cfg = write_config(tmp_path, name=f"{run}.json", out_dir=str(tmp_path / run), **overrides)
        assert cli.main([command, str(cfg)]) == 0
    for name in outputs:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    status = cli.main(["run", str(cfg), "--suite", "foo"])
    assert status == 2
    err = capsys.readouterr().err
    assert "algebra-axioms" in err  # the message lists valid suites


def test_missing_seed_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": "sym_real(2)"}))
    assert cli.main(["run", str(path)]) == 2


def test_seeds_beyond_32_bits_draw_their_own_streams_and_negative_seeds_are_usage_errors(tmp_path):
    def draw(seed):
        return cli._sub_rng(seed, "suite:lukacs").standard_normal(4)

    assert not np.array_equal(draw(5), draw(5 + 2**32))
    assert not np.array_equal(draw(2**32 - 1), draw(2**33 - 1))
    # seeds below 2**32 seed their sequence with the same words as before, so their streams are kept
    digest = hashlib.sha256(b"suite:lukacs").digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]
    assert np.array_equal(draw(5), np.random.default_rng(np.random.SeedSequence([5] + words)).standard_normal(4))
    assert cli.main(["run", str(write_config(tmp_path, seed=-1))]) == 2
    assert cli.main(["run", str(write_config(tmp_path)), "--seed", "-1"]) == 2


def test_missing_file_and_bad_json(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2


def test_seed_override_changes_reports(tmp_path):
    cfg = write_config(tmp_path, suites=["algebra-axioms"], out_dir=str(tmp_path / "rA"))
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--seed", "7", "--out", str(tmp_path / "rB")]) == 0
    a = json.loads((tmp_path / "rA" / "algebra-axioms.json").read_text())
    b = json.loads((tmp_path / "rB" / "algebra-axioms.json").read_text())
    assert a["seed"] == 42 and b["seed"] == 7
    assert a["checks"] != b["checks"]


def test_decompose_families_and_csv_roundtrip(tmp_path):
    out = tmp_path / "dec"
    oracle_csv = tmp_path / "oracle.csv"
    cfg = write_config(
        tmp_path,
        name="dec.json",
        oracle={
            "family": "wishart-form",
            "lambda": "minus_e",
            "kappa": [0.7, 1.3],
            "grid": {"n_points": 300, "seed": 7},
        },
        dump_oracle=str(oracle_csv),
    )
    assert cli.main(["decompose", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "decomposition.json").read_text())
    lam = np.array(payload["lambda"])
    np.testing.assert_allclose(lam, [-1.0, -1.0, 0.0], atol=1e-3)
    assert payload["e_fn"]["form"] == "log_det_power"
    assert abs(payload["e_fn"]["kappa"] - 0.7) < 1e-3
    assert abs(payload["f_fn"]["kappa"] - 1.3) < 1e-3
    assert payload["constant_defect"] < 1e-3

    # the dumped oracle reproduces the decomposition through the csv family
    cfg_csv = write_config(
        tmp_path,
        name="dec_csv.json",
        oracle={"family": "csv", "path": str(oracle_csv), "grid": {"n_points": 300, "seed": 7}},
    )
    assert cli.main(["decompose", str(cfg_csv), "--out", str(tmp_path / "dec2")]) == 0
    payload2 = json.loads((tmp_path / "dec2" / "decomposition.json").read_text())
    np.testing.assert_allclose(payload2["lambda"], payload["lambda"], atol=1e-9)


def test_decompose_zero_family(tmp_path):
    cfg = write_config(tmp_path, name="zero.json", oracle={"family": "zero", "grid": {"n_points": 200, "seed": 3}})
    assert cli.main(["decompose", str(cfg), "--out", str(tmp_path / "z")]) == 0
    payload = json.loads((tmp_path / "z" / "decomposition.json").read_text())
    np.testing.assert_allclose(payload["lambda"], [0.0, 0.0, 0.0], atol=1e-10)
    for value in payload["constants"].values():
        assert abs(value) < 1e-10


def test_decompose_riesz_family(tmp_path):
    cfg = write_config(
        tmp_path,
        name="riesz.json",
        algorithm="w2",
        oracle={
            "family": "riesz-form",
            "s1": [2.0, 1.0],
            "s2": [1.5, 0.5],
            "grid": {"n_points": 300, "seed": 5},
        },
    )
    assert cli.main(["decompose", str(cfg), "--out", str(tmp_path / "rz")]) == 0
    payload = json.loads((tmp_path / "rz" / "decomposition.json").read_text())
    assert payload["e_fn"]["form"] == "delta_s_log"
    np.testing.assert_allclose(payload["e_fn"]["s"], [2.0, 1.0], atol=1e-3)


def test_decompose_additivity_violation_fails(tmp_path):
    oracle_csv = tmp_path / "oracle.csv"
    cfg = write_config(
        tmp_path,
        name="dec.json",
        oracle={
            "family": "wishart-form",
            "kappa": [0.7, 1.3],
            "grid": {"n_points": 200, "seed": 7},
        },
        dump_oracle=str(oracle_csv),
    )
    assert cli.main(["decompose", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    rows = list(csv.reader(oracle_csv.open()))
    for row in rows[1:]:
        if row[0] == "a":
            c0 = float(row[1])
            row[-1] = repr(float(row[-1]) + 0.05 * c0 * c0)
    bad_csv = tmp_path / "bad.csv"
    with bad_csv.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    cfg_bad = write_config(
        tmp_path,
        name="bad.json",
        oracle={"family": "csv", "path": str(bad_csv), "grid": {"n_points": 200, "seed": 7}},
    )
    assert cli.main(["decompose", str(cfg_bad), "--out", str(tmp_path / "bad_out")]) == 1


def test_decompose_csv_with_wrong_c_at_identity_fails(tmp_path, capsys):
    """A tabulated c off by 1e-3 at e alone passes the equation gate but fails the recovered parts."""
    oracle_csv = tmp_path / "oracle.csv"
    grid = {"n_points": 300, "seed": 2}
    oracle = {"family": "riesz-form", "s1": [2.0, 1.0], "s2": [1.5, 0.5], "grid": grid}
    cfg = write_config(tmp_path, name="dec.json", algorithm="w2", oracle=oracle, dump_oracle=str(oracle_csv))
    assert cli.main(["decompose", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    rows = list(csv.reader(oracle_csv.open()))
    e = list(alg.identity(alg.sym_real(2)).coords)
    edited = 0
    for row in rows[1:]:
        if row[0] == "c" and [float(v) for v in row[1:-1]] == e:
            row[-1] = repr(float(row[-1]) + 1e-3)
            edited += 1
    assert edited >= 1
    bad_csv = tmp_path / "bad.csv"
    with bad_csv.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    cfg_bad = write_config(
        tmp_path, name="bad.json", algorithm="w2", oracle={"family": "csv", "path": str(bad_csv), "grid": grid}
    )
    capsys.readouterr()
    assert cli.main(["decompose", str(cfg_bad), "--out", str(tmp_path / "bad_out")]) == 1
    assert capsys.readouterr().err.startswith("failure: recovered parts miss the oracles")


@pytest.mark.parametrize(
    "bad_row",
    ["", "a,0.5,0.1,x,1.0", "a,0.5,0.1,1.0", "a,0.5,nan,0.7,1.0", "a,0.5,0.1,0.7,inf"],
    ids=["blank-row", "non-numeric-cell", "short-row", "nan-cell", "inf-cell"],
)
def test_decompose_rejects_malformed_oracle_csv(tmp_path, capsys, bad_row):
    oracle_csv = tmp_path / "oracle.csv"
    oracle_csv.write_text(f"role,c0,c1,c2,value\r\na,0.5,0.1,0.7,1.0\r\n{bad_row}\r\n")
    cfg = write_config(
        tmp_path,
        name="bad_rows.json",
        oracle={"family": "csv", "path": str(oracle_csv), "grid": {"n_points": 200, "seed": 7}},
    )
    assert cli.main(["decompose", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "oracle CSV" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        cli._oracle_csv_rows(oracle_csv, alg.sym_real(2))


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("decompose", {"oracle": {"family": "csv"}}),
        ("decompose", {"oracle": {"family": "csv", "path": "{tmp}/absent.csv"}}),
        ("decompose", {"oracle": {"family": "riesz-form", "s2": [1.5, 0.5]}}),
        ("decompose", {"oracle": {"family": "riesz-form", "s1": [2.0, 1.0]}}),
        ("decompose", {"oracle": {"family": "wishart-form", "lambda": [float("nan"), 0.0, 0.0]}}),
        ("decompose", {"oracle": {"family": "zero", "grid": {"low": float("inf")}}}),
        ("sample", {"distribution": {"type": "wishart"}}),
        ("sample", {"distribution": {"type": "riesz"}}),
        ("sample", {"distribution": {"type": "wishart", "p": 3.0, "a": [1.0, float("inf"), 0.0]}}),
        ("run", {"algebra": {"kind": "sym_real"}}),
        ("run", {"algebra": {"kind": "lorentz"}}),
        ("run", {"samples": {"peirce": float("nan")}}),
        ("run", {"samples": "lots"}),
        ("run", {"samples": {"peirce": -5}}),
        ("run", {"samples": {"peirce": 2.5}}),
        ("run", {"samples": {"no-such-suite": 5}}),
        ("run", {"tolerances": {"peirce_identity": float("nan")}}),
        ("run", {"tolerances": {"peirce_identity": -1e-3}}),
        ("run", {"tolerances": {"no_such_tolerance": 1e-3}}),
        ("sample", {"n": -5, "distribution": {"type": "riesz", "s": [2.0, 1.5]}}),
        ("sample", {"n": 2.5, "distribution": {"type": "riesz", "s": [2.0, 1.5]}}),
        ("decompose", {"oracle": {"family": "zero", "grid": {"n_points": 200.5}}}),
        ("decompose", {"oracle": {"family": "wishart-form", "kappa": 0.7}}),
        ("decompose", {"oracle": {"family": "wishart-form", "kappa": [0.7]}}),
    ],
    ids=[
        "csv-without-path",
        "csv-missing-file",
        "riesz-form-without-s1",
        "riesz-form-without-s2",
        "nan-lambda",
        "inf-grid-bound",
        "wishart-without-p",
        "riesz-without-s",
        "inf-scale",
        "algebra-without-rank",
        "algebra-without-n",
        "nan-sample-size",
        "samples-not-an-object",
        "negative-sample-size",
        "fractional-sample-size",
        "samples-for-unknown-suite",
        "nan-tolerance",
        "negative-tolerance",
        "unknown-tolerance",
        "negative-draw-count",
        "fractional-draw-count",
        "fractional-grid-size",
        "scalar-kappa",
        "one-entry-kappa",
    ],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, command, overrides):
    """Missing keys and non-finite numbers exit 2 with one error line, not a traceback."""
    overrides = json.loads(json.dumps(overrides).replace("{tmp}", str(tmp_path)))
    cfg = write_config(tmp_path, name="malformed.json", **overrides)
    assert cli.main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_decompose_requires_oracle(tmp_path):
    cfg = write_config(tmp_path, name="no_oracle.json")
    assert cli.main(["decompose", str(cfg)]) == 2


def test_sample_writes_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        name="sample.json",
        n=25,
        distribution={"type": "riesz", "s": [2.0, 1.5], "a": "e"},
        output="draws.csv",
    )
    out = tmp_path / "samples"
    assert cli.main(["sample", str(cfg), "--out", str(out)]) == 0
    from conelab.distributions import load_samples_csv

    draws = load_samples_csv(out / "draws.csv")
    assert len(draws) == 25
    assert draws[0].algebra.name == "sym_real(2)"
    # deterministic rerun produces identical bytes
    out2 = tmp_path / "samples2"
    assert cli.main(["sample", str(cfg), "--out", str(out2)]) == 0
    assert (out / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()


def test_sample_rejects_unknown_distribution(tmp_path):
    cfg = write_config(tmp_path, name="s.json", distribution={"type": "gauss"})
    assert cli.main(["sample", str(cfg)]) == 2
