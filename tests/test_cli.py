"""Command line contract: schemas, determinism, exit codes."""

import json

import numpy as np
import pytest

from su3lab.cli import main, parse_config_file
from su3lab.errors import ConfigError
from su3lab.experiments import REAL_COLUMN_NAMES

EXPECTED_COLUMNS = 1 + 18 + 1


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines]


def test_sample_haar_schema(tmp_path):
    out = tmp_path / "haar.csv"
    code = main(["sample", "--count", "10", "--seed", "5", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["sample_index", *REAL_COLUMN_NAMES, "fiber_residual"]
    assert len(rows) == 11
    assert all(len(r) == EXPECTED_COLUMNS for r in rows)
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(10)]
    # Haar pairs sit on their own commutator fiber by construction.
    assert max(float(r[-1]) for r in rows[1:]) <= 1e-12


def test_sample_fiber_mode(tmp_path):
    out = tmp_path / "fiber.csv"
    code = main(
        [
            "sample",
            "--count",
            "8",
            "--seed",
            "5",
            "--angles",
            "0.123,0.456",
            "--walk-steps",
            "32",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 9
    assert max(float(r[-1]) for r in rows[1:]) <= 1e-9
    # All rows share the fiber, but the characters themselves move.
    first = rows[1][1:5]
    assert any(rows[k][1:5] != first for k in range(2, 9))


def test_sample_count_zero_emits_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["sample", "--count", "0", "--seed", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == "sample_index"


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample", "--count", "6", "--seed", "42"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_orbit_schema_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "orbit",
        "--n",
        "5",
        "--word-length",
        "40",
        "--seed",
        "9",
        "--trace",
        "0.5,0.1",
    ]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_csv(a)
    assert rows[0][0] == "word_index"
    assert len(rows) == 6
    assert all(len(r) == EXPECTED_COLUMNS for r in rows)
    assert max(float(r[-1]) for r in rows[1:]) <= 1e-9
    # Consecutive rows are different points of the same fiber.
    assert rows[1][1:5] != rows[2][1:5]


def test_orbit_requires_fiber_label(capsys):
    assert main(["orbit", "--n", "3", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "fiber label" in err


def test_orbit_rejects_central_label(capsys):
    code = main(["orbit", "--n", "3", "--seed", "1", "--trace", "3,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "central" in err


def test_sample_rejects_out_of_domain_trace(capsys):
    code = main(["sample", "--count", "2", "--seed", "1", "--trace", "4,0"])
    assert code == 2
    assert "trace domain" in capsys.readouterr().err


def test_experiment_run_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "census.cfg"
    cfg.write_text(
        "# desk-scale census\n"
        "kind = submersion_census\n"
        "seed = 11\n"
        "N = 12\n"
        "c_spec = angles=0.13,0.29\n",
        encoding="utf-8",
    )
    code = main(["experiment", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["rank8_fraction"] == 1.0
    assert report["manifest"]["command"] == "experiment"
    assert report["manifest"]["seed"] == 11


def test_experiment_writes_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    cfg = tmp_path / "census.cfg"
    cfg.write_text(
        "kind = submersion_census\n"
        "seed = 11\n"
        "N = 12\n"
        "c_spec = angles=0.13,0.29\n"
        f"out = {dest}\n",
        encoding="utf-8",
    )
    assert main(["experiment", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert dest.read_text(encoding="utf-8") == stdout


def test_experiment_deterministic_outside_manifest(tmp_path, capsys):
    cfg = tmp_path / "census.cfg"
    cfg.write_text(
        "kind = submersion_census\nseed = 2\nN = 10\nc_spec = angles=0.2,0.31\n",
        encoding="utf-8",
    )
    main(["experiment", str(cfg)])
    first = json.loads(capsys.readouterr().out)
    main(["experiment", str(cfg)])
    second = json.loads(capsys.readouterr().out)
    first.pop("manifest")
    second.pop("manifest")
    assert first == second


def test_experiment_failing_thresholds_exit_one(tmp_path, capsys):
    # A torsion anchor with an eigenvalue at 1 leaves a fat Weyl average;
    # the geometric bound is then the trivial one and the run still passes,
    # so force a failure through the abelian gap instead: a hyperbolic
    # word on an irrational start cannot reach gap 0 at N this small.
    cfg = tmp_path / "abelian.cfg"
    cfg.write_text(
        "kind = abelian_hyperbolic_test\n"
        "seed = 3\n"
        "N = 64\n"
        f"c_spec = angles={np.sqrt(2) - 1},{np.sqrt(3) - 1}\n",
        encoding="utf-8",
    )
    code = main(["experiment", str(cfg)])
    report = json.loads(capsys.readouterr().out)
    assert not report["pass"]
    assert code == 1


def test_experiment_config_errors(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    missing.write_text("kind = submersion_census\n", encoding="utf-8")
    assert main(["experiment", str(missing)]) == 2
    assert "'seed'" in capsys.readouterr().err

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("kind = x\nseed = 1\nbogus = 2\n", encoding="utf-8")
    assert main(["experiment", str(unknown)]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and ":3:" in err

    absent = tmp_path / "does-not-exist.cfg"
    assert main(["experiment", str(absent)]) == 2


def test_parse_config_file_full(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "kind = coset_twist_orbit  # trailing comment\n"
        "seed = 7\n"
        "N = 123\n"
        "word_length = 17\n"
        "trials = 2\n"
        "height = 30\n"
        "tol = 1e-8\n"
        "c_spec = angles=0.1,0.2\n",
        encoding="utf-8",
    )
    config = parse_config_file(str(cfg))
    assert config.kind == "coset_twist_orbit"
    assert config.seed == 7
    assert config.n == 123
    assert config.word_length == 17
    assert config.trials == 2
    assert config.height == 30
    assert config.tol == 1e-8
    assert config.c_spec == "angles=0.1,0.2"


def test_parse_config_file_bad_int(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = x\nseed = seven\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--count", "2", "--seed", "-1"],
        ["orbit", "--n", "2", "--seed", "-1", "--angles", "0.1,0.3"],
    ],
)
def test_negative_seed_is_a_config_error(argv, capsys):
    assert main(argv) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_negative_seed_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("kind = submersion_census\nseed = -3\nN = 4\n", encoding="utf-8")
    assert main(["experiment", str(cfg)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag,label", [("--angles", "nan,0.3"), ("--angles", "0.1,inf"), ("--trace", "nan,0")])
def test_non_finite_fiber_label_is_a_config_error(flag, label, capsys):
    assert main(["orbit", "--n", "2", "--seed", "1", flag, label]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["sample", "--count", "2", "--seed", "1", flag, label]) == 2
    assert "finite" in capsys.readouterr().err


def test_negative_word_length_is_a_config_error(capsys):
    argv = ["orbit", "--n", "2", "--seed", "1", "--angles", "0.1,0.3", "--word-length", "-5"]
    assert main(argv) == 2
    assert "word length" in capsys.readouterr().err


def test_negative_walk_steps_is_a_config_error(capsys):
    argv = ["sample", "--count", "2", "--seed", "1", "--angles", "0.1,0.3", "--walk-steps", "-5"]
    assert main(argv) == 2
    assert "walk steps" in capsys.readouterr().err


def test_repeated_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("kind = submersion_census\nseed = 1\nN = 4\nseed = 2\n", encoding="utf-8")
    assert main(["experiment", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "repeated config key 'seed'" in err and ":4:" in err
