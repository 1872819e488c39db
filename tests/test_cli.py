"""Command line contract: schemas, determinism, exit codes."""

import json
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest

from su3lab import __version__
from su3lab.cli import main, parse_config_file
from su3lab.errors import ConfigError
from su3lab.experiments import REAL_COLUMN_NAMES, ExperimentConfig

EXPECTED_COLUMNS = 1 + 18 + 1
ROOT = Path(__file__).resolve().parent.parent


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
    for label in ([], ["--angles", "0.1,0.3"]):
        argv = ["sample", "--count", "0", "--seed", "1", *label, "--out", str(out)]
        assert main(argv) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0][0] == "sample_index"


def test_orbit_with_empty_words_repeats_the_base_point(tmp_path):
    out = tmp_path / "still.csv"
    for n in (1, 3):
        argv = ["orbit", "--n", str(n), "--word-length", "0", "--seed", "1"]
        assert main([*argv, "--angles", "0.1,0.3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r[0] for r in rows] == ["word_index", *map(str, range(n))]
        assert all(r[1:] == rows[1][1:] for r in rows[1:])


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


@pytest.mark.parametrize("kind", ["submersion_census", "mcg_orbit_distribution"])
@pytest.mark.parametrize(
    "c_spec", ["trace=3,0", "trace=-1.5,2.598076211353316", "angles=0,0"]
)
def test_census_rejects_central_trace_label(tmp_path, capsys, c_spec, kind):
    # Triple characteristic roots resolve about 1e-5 off the central element.
    cfg = tmp_path / "central.cfg"
    cfg.write_text(
        f"kind = {kind}\nseed = 3\nN = 4\nword_length = 8\nc_spec = {c_spec}\n",
        encoding="utf-8",
    )
    assert main(["experiment", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "central" in err
    assert "abelian_hyperbolic_test" in err


def test_sample_rejects_out_of_domain_trace(capsys):
    code = main(["sample", "--count", "2", "--seed", "1", "--trace", "4,0"])
    assert code == 2
    assert "trace domain" in capsys.readouterr().err


def test_sample_negative_trace_label_with_equals_sign(tmp_path):
    # argparse reads the "-0.5,0.2" of `--trace -0.5,0.2` as an option, so
    # the README writes a label with a negative real part as `--trace=`.
    out = tmp_path / "fiber.csv"
    code = main(["sample", "--count", "4", "--seed", "1", "--trace=-0.5,0.2", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 5 and all(len(r) == EXPECTED_COLUMNS for r in rows)
    assert max(float(r[-1]) for r in rows[1:]) <= 1e-9


def test_sample_overflowing_trace_label_warns_nothing(capsys):
    # The boundary defect of 1e200 overflows to NaN; the refusal is the
    # typed error alone, with no numpy RuntimeWarning before it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sample", "--count", "2", "--seed", "1", "--trace", "1e200,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "outside the trace domain" in err
    assert "RuntimeWarning" not in err
    assert [w.category for w in caught] == []


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


def test_experiment_out_in_a_missing_directory_prints_nothing(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.json"
    cfg = tmp_path / "census.cfg"
    cfg.write_text(
        "kind = submersion_census\n"
        "seed = 11\n"
        "N = 12\n"
        "c_spec = angles=0.13,0.29\n"
        f"out = {dest}\n",
        encoding="utf-8",
    )
    assert main(["experiment", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(dest) in captured.err


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


def test_orbit_distribution_below_its_floor_exits_two(tmp_path, capsys):
    cfg = tmp_path / "orbit.cfg"
    cfg.write_text(
        "kind = mcg_orbit_distribution\nseed = 3\nN = 10\nword_length = 4\n"
        "c_spec = angles=0.13,0.29\n",
        encoding="utf-8",
    )
    assert main(["experiment", str(cfg)]) == 2
    assert "N >= 11" in capsys.readouterr().err


def test_pyproject_version_is_the_package_version():
    """Both are bumped by hand; the manifest records __version__."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == __version__


def test_parse_config_file_full(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "kind = coset_twist_orbit  # trailing comment\n"
        "seed = 7\n"
        "N = 123\n"
        "word_length = 17\n"
        "trials = 2\n"
        "c_spec = angles=0.1,0.2\n",
        encoding="utf-8",
    )
    config = parse_config_file(str(cfg))
    assert config.kind == "coset_twist_orbit"
    assert config.seed == 7
    assert config.n == 123
    assert config.word_length == 17
    assert config.trials == 2
    assert config.c_spec == "angles=0.1,0.2"


@pytest.mark.parametrize(
    "line", ["height = 0", "height = -5", "tol = nan", "tol = -1", "height = 20"]
)
def test_genericity_keys_are_not_config_keys(tmp_path, capsys, line):
    # The genericity height and tolerance are package constants.
    cfg = tmp_path / "generic.cfg"
    cfg.write_text(
        "kind = coset_twist_orbit\nseed = 1\nN = 100\n"
        f"c_spec = angles=0.1,0.3\n{line}\n",
        encoding="utf-8",
    )
    assert main(["experiment", str(cfg)]) == 2
    key = line.split()[0]
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_report_records_the_genericity_constants(tmp_path, capsys):
    cfg = tmp_path / "coset.cfg"
    cfg.write_text(
        "kind = coset_twist_orbit\nseed = 1\nN = 100\nc_spec = angles=0.1,0.3\n",
        encoding="utf-8",
    )
    assert main(["experiment", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert '"height": 20,' in text and '"tol": 1e-09' in text
    config = json.loads(text)["manifest"]["config"]
    assert config["height"] == 20 and config["tol"] == 1e-9


def test_parse_config_file_defaults_and_key_spelling(tmp_path):
    cfg = tmp_path / "minimal.cfg"
    cfg.write_text("kind = submersion_census\nseed = 4\n", encoding="utf-8")
    assert parse_config_file(str(cfg)) == ExperimentConfig(kind="submersion_census", seed=4)
    # The file spells the sample count N; the field name n is not a key.
    cfg.write_text("kind = submersion_census\nseed = 4\nn = 8\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="'n'"):
        parse_config_file(str(cfg))


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


@pytest.mark.parametrize(
    "flag,label",
    [
        ("--angles", "nan,0.3"),
        ("--angles", "0.1,inf"),
        ("--trace", "nan,0"),
        # Finite angles whose third angle -t1 - t2 overflows.
        ("--angles", "1e308,1e308"),
    ],
)
def test_non_finite_fiber_label_is_a_config_error(flag, label, capsys):
    assert main(["orbit", "--n", "2", "--seed", "1", flag, label]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["sample", "--count", "2", "--seed", "1", flag, label]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["submersion_census", "coset_twist_orbit"])
def test_overflowing_third_angle_in_config_file(tmp_path, capsys, kind):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        f"kind = {kind}\nseed = 1\nN = 4\nc_spec = angles=1e308,1e308\n",
        encoding="utf-8",
    )
    assert main(["experiment", str(cfg)]) == 2
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


def test_config_with_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfkind = central_fiber_rigidity\nseed = 1\n")
    assert parse_config_file(str(cfg)) == ExperimentConfig(
        kind="central_fiber_rigidity", seed=1
    )
    assert main(["experiment", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"kind = submersion_census\nseed = 1\n# caf\xe9 \xff\n")
    assert main(["experiment", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg) in err and "UTF-8" in err
