"""Experiment drivers at desk scale; the acceptance module runs them large."""

import json

import numpy as np
import pytest
import scipy.stats
from scipy.special import kolmogi
from hypothesis import given, settings
from hypothesis import strategies as st

from su3lab.errors import (
    CentralFiberError,
    ConfigError,
    FiberMismatchError,
    NonHyperbolicWordError,
)
from su3lab.fiber import RepPoint, base_point, central_fiber_point, commutator
from su3lab.flows import walk_from
from su3lab.mcg import TwistWord
from su3lab.su3 import haar_random
from su3lab.traces import character_reals, character_values
from su3lab.experiments import (
    DEFAULT_HYPERBOLIC_WORD,
    GRID_MODULUS,
    REAL_COLUMN_NAMES,
    ExperimentConfig,
    ExperimentReport,
    _abelian_modulus,
    abelian_hyperbolic_test,
    central_fiber_rigidity,
    coset_twist_orbit,
    ks_statistic,
    matrix_from_c_spec,
    mcg_orbit_distribution,
    resolve_c_spec,
    run_experiment,
    submersion_census,
)

ST_SAMPLE = st.lists(
    st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40
).map(np.array)


def test_ks_statistic_matches_scipy(rng):
    for _ in range(10):
        x = rng.normal(size=rng.integers(5, 400))
        y = rng.normal(loc=rng.normal(), size=rng.integers(5, 400))
        ours = ks_statistic(x, y)
        theirs = scipy.stats.ks_2samp(x, y, method="asymp").statistic
        assert abs(ours - theirs) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(ST_SAMPLE, ST_SAMPLE)
def test_ks_statistic_bounds(x, y):
    d = ks_statistic(x, y)
    assert 0.0 <= d <= 1.0
    assert ks_statistic(x, x) == 0.0


def test_ks_statistic_disjoint_samples():
    assert ks_statistic(np.zeros(5), np.ones(5)) == 1.0


def test_real_column_names_schema():
    assert len(REAL_COLUMN_NAMES) == 18
    assert REAL_COLUMN_NAMES[0] == "re_tr_a"
    assert REAL_COLUMN_NAMES[1] == "im_tr_a"
    assert REAL_COLUMN_NAMES[8] == "re_tr_comm"


def test_abelian_modulus_rational():
    assert _abelian_modulus((1 / 3, 1 / 5)) == (15, True)
    assert _abelian_modulus((0.5, 0.25, 0.0, 0.0)) == (4, True)
    assert _abelian_modulus((0.0,)) == (1, True)


def test_abelian_modulus_irrational():
    mod, exact = _abelian_modulus((np.sqrt(2) - 1, 0.0))
    assert mod == GRID_MODULUS and not exact


def test_resolve_c_spec():
    assert resolve_c_spec("trace=1.5,-0.25") == ("trace", (1.5, -0.25))
    assert resolve_c_spec(" angles=0.1,0.2 ") == ("angles", (0.1, 0.2))
    assert resolve_c_spec("angles=0.1,0.2,0.3,0.4")[1] == (0.1, 0.2, 0.3, 0.4)
    for bad in ("radius=1", "trace=1", "trace=1,2,3", "angles=0.1", "trace=x,y"):
        with pytest.raises(ConfigError):
            resolve_c_spec(bad)


def test_matrix_from_c_spec():
    m = matrix_from_c_spec("angles=0.25,0.5")
    assert abs(np.linalg.det(m) - 1.0) <= 1e-12
    expected = np.exp(2j * np.pi * np.array([0.25, 0.5, -0.75]))
    assert np.abs(np.diagonal(m) - expected).max() <= 1e-12
    ident = matrix_from_c_spec("trace=3,0")
    assert np.abs(ident - np.eye(3)).max() <= 1e-4
    with pytest.raises(ConfigError):
        matrix_from_c_spec("angles=0.1,0.2,0.3,0.4")  # four angles name a pair


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="census", seed=1, n=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="census", seed=1, trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="census", seed=1, word_length=-1)


def test_report_json_shape():
    r = ExperimentReport(stats={"x": 1}, thresholds={"x_max": 2}, passed=True)
    d = r.to_json_dict()
    assert d["x"] == 1 and d["pass"] is True
    assert d["thresholds"] == {"x_max": 2}
    assert d["manifest"] == {}


def test_central_fiber_rigidity_passes():
    report = central_fiber_rigidity()
    assert report.passed
    assert report.stats["group_order"] == 27
    assert report.stats["kappa_residual"] <= 1e-14
    assert report.stats["max_word_character_distance"] <= 1e-13


def test_submersion_census_small(rng):
    c = commutator(haar_random(rng), haar_random(rng))
    report = submersion_census(c, 24, rng)
    assert report.passed
    assert report.stats["rank8_fraction"] == 1.0
    assert report.stats["rank_matches_intersection"]
    assert report.stats["base_point_rank"] == 8
    with pytest.raises(CentralFiberError):
        submersion_census(np.eye(3, dtype=complex), 8, rng)


def test_coset_twist_orbit_generic_anchor(rng):
    anchor = matrix_from_c_spec(f"angles={np.sqrt(2) - 1},{np.sqrt(3) - 1}")
    p = RepPoint.from_pair(anchor, haar_random(rng))
    report = coset_twist_orbit(p, 4000)
    assert report.passed
    assert report.stats["anchor_generic"]
    assert report.stats["period"] == 0
    ladder = report.stats["weyl_ladder_abs"]
    assert ladder[-1] <= ladder[0]
    assert report.stats["abs_weyl_avg"] <= report.thresholds["abs_weyl_avg_max"]


def test_coset_twist_orbit_torsion_anchor(rng):
    anchor = matrix_from_c_spec("angles=0,0.3333333333333333")
    p = RepPoint.from_pair(anchor, haar_random(rng))
    report = coset_twist_orbit(p, 300)
    assert report.stats["periodic"]
    assert report.stats["period"] == 3
    assert not report.stats["anchor_generic"]


def test_coset_twist_orbit_single_step(rng):
    # The orbit is the start alone: no return time to find, W_1 = Tr(b).
    anchor = matrix_from_c_spec("angles=0,0.3333333333333333")
    p = RepPoint.from_pair(anchor, haar_random(rng))
    report = coset_twist_orbit(p, 1)
    assert report.passed and report.stats["period"] == 0
    assert report.stats["weyl_avg_re"] == pytest.approx(np.trace(p.b).real)


@pytest.mark.parametrize(
    "kind, n, word_length",
    [
        (kind, n, 10)
        for kind in (
            "coset_twist_orbit",
            "mcg_orbit_distribution",
            "abelian_hyperbolic_test",
            "submersion_census",
        )
        for n in (0, -3)
    ]
    + [("mcg_orbit_distribution", 10, -3)],
)
def test_experiments_refuse_empty_sizes(rng, kind, n, word_length):
    p = base_point(commutator(haar_random(rng), haar_random(rng)))
    anchor = RepPoint.from_pair(matrix_from_c_spec("angles=0.1,0.3"), haar_random(rng))
    calls = {
        "coset_twist_orbit": lambda: coset_twist_orbit(anchor, n),
        "mcg_orbit_distribution": lambda: mcg_orbit_distribution(
            p, p, word_length, n, rng
        ),
        "abelian_hyperbolic_test": lambda: abelian_hyperbolic_test(
            (1 / 3, 1 / 5, 0.0, 0.0), DEFAULT_HYPERBOLIC_WORD, n, rng
        ),
        "submersion_census": lambda: submersion_census(p.c, n, rng),
    }
    message = "N must be at least 1"
    if word_length < 0:
        message = "word_length must be nonnegative"
    with pytest.raises(ConfigError, match=message):
        calls[kind]()


def test_abelian_hyperbolic_rational_is_periodic(rng):
    report = abelian_hyperbolic_test(
        (1 / 3, 1 / 5, 0.0, 0.0), DEFAULT_HYPERBOLIC_WORD, 1000, rng
    )
    assert report.stats["periodic"]
    assert report.stats["exact_rational_start"]
    assert report.stats["modulus"] == 15
    assert report.stats["period"] == 20
    assert report.passed


def test_abelian_hyperbolic_irrational_gap(rng):
    report = abelian_hyperbolic_test(
        (np.sqrt(2) - 1, np.sqrt(3) - 1, 0.0, 0.0),
        DEFAULT_HYPERBOLIC_WORD,
        5000,
        rng,
    )
    assert not report.stats["periodic"]
    assert report.stats["max_gap"] <= 0.2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_abelian_refuses_non_finite_angles(rng, bad):
    with pytest.raises(ConfigError, match="finite"):
        abelian_hyperbolic_test(
            (bad, 1 / 5, 0.0, 0.0), DEFAULT_HYPERBOLIC_WORD, 50, rng
        )


@pytest.mark.parametrize("angles", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4, 0.5)])
def test_abelian_refuses_angles_that_are_not_four(rng, angles):
    """Two or five angles are refused with the typed config error, not an
    IndexError from the orbit's start state."""
    with pytest.raises(ConfigError, match="four numbers"):
        abelian_hyperbolic_test(angles, DEFAULT_HYPERBOLIC_WORD, 10, rng)


def test_abelian_rejects_parabolic_word(rng):
    with pytest.raises(NonHyperbolicWordError):
        abelian_hyperbolic_test(
            (1 / 3, 1 / 5, 0.0, 0.0), TwistWord(("a",)), 100, rng
        )


def test_abelian_runs_a_word_past_float_determinants(rng):
    """(ab)^20 has homology entries up to 165 580 141, where a float
    determinant reads 0; the exact one reads 1."""
    word = TwistWord(tuple("ab" * 20))
    report = abelian_hyperbolic_test((1 / 3, 1 / 5, 0.0, 0.0), word, 50, rng)
    assert report.stats["homology_trace"] == 228_826_127


def walked_starts(rng):
    """Two starts on a Haar fiber, walked 64 flow steps from its base point
    as one 2-row stack."""
    c = commutator(haar_random(rng), haar_random(rng))
    base = base_point(c)
    a, b = walk_from(base, 2, 64, rng)
    return RepPoint(a=a[0], b=b[0], c=base.c), RepPoint(a=a[1], b=b[1], c=base.c)


def test_mcg_orbit_distribution_small(rng):
    s1, s2 = walked_starts(rng)
    report = mcg_orbit_distribution(s1, s2, 30, 300, rng)
    assert report.stats["all_on_fiber"]
    assert report.stats["start_one_char_spread"] > 1e-3
    assert 0.0 <= report.stats["max_ks"] <= 0.5
    assert report.stats["max_null_ks"] <= 0.5
    # The closed form is the Kolmogorov quantile at 1e-3 over two gates
    # times 8 columns.
    law = kolmogi(1e-3 / 16) * np.sqrt(2 / 300)
    assert report.thresholds["ks_max"] == pytest.approx(law, rel=1e-12)
    for key in ("ks_per_coordinate", "null_ks_per_coordinate"):
        assert list(report.stats[key]) == list(REAL_COLUMN_NAMES[:8])


def test_mcg_orbit_distribution_zero_letters_keeps_each_start(rng):
    """Without letters every ensemble is N copies of its start: the null
    ensemble equals the first, and two distinct starts differ in every
    gated column, so the two-start KS distance is 1 and the run fails.
    The spread is roundoff, not 0: character_values adds the nine terms of
    tr_ab_inv in another order on a lone pair than on a stack."""
    s1, s2 = walked_starts(rng)
    report = mcg_orbit_distribution(s1, s2, 0, 50, rng)
    assert report.stats["max_null_ks"] == 0.0
    assert report.stats["start_one_char_spread"] <= 1e-15
    assert report.stats["max_ks"] == 1.0
    assert report.stats["all_on_fiber"]
    assert not report.passed


def test_mcg_orbit_distribution_refuses_a_gate_that_cannot_fail(rng):
    """For N <= 10 the threshold sqrt(ln(32 000)/N) is above 1, the largest
    KS distance; N = 11 is the floor."""
    s1, s2 = walked_starts(rng)
    with pytest.raises(ConfigError, match="N >= 11"):
        mcg_orbit_distribution(s1, s2, 4, 10, rng)
    report = mcg_orbit_distribution(s1, s2, 4, 11, rng)
    assert report.thresholds["ks_max"] < 1.0


def test_inverse_columns_repeat_their_partners_ks(rng):
    # mcg_orbit_distribution gates only REAL_COLUMN_NAMES[:8]: each tr_inv_*
    # column is its partner conjugated, so its KS distance is the partner's.
    one, two = (
        character_reals(
            character_values(haar_random(rng, size=2000), haar_random(rng, size=2000))
        )
        for _ in range(2)
    )
    assert REAL_COLUMN_NAMES[8:10] == ("re_tr_comm", "im_tr_comm")
    for j, name in enumerate(REAL_COLUMN_NAMES[:8]):
        k = 10 + j
        assert REAL_COLUMN_NAMES[k] == name.replace("_tr_", "_tr_inv_")
        base = ks_statistic(one[:, j], two[:, j])
        inverse = ks_statistic(one[:, k], two[:, k])
        if name.startswith("re_"):
            assert inverse == base
        else:
            assert abs(inverse - base) <= 1e-15


def test_mcg_rejects_mismatched_fibers(rng):
    p = RepPoint.from_pair(haar_random(rng), haar_random(rng))
    q = RepPoint.from_pair(haar_random(rng), haar_random(rng))
    with pytest.raises(FiberMismatchError):
        mcg_orbit_distribution(p, q, 10, 50, rng)


def test_mcg_rejects_central_fiber(rng):
    p = central_fiber_point()
    with pytest.raises(CentralFiberError):
        mcg_orbit_distribution(p, p, 10, 50, rng)


def test_run_experiment_deterministic():
    config = ExperimentConfig(
        kind="submersion_census", seed=7, n=16, c_spec="angles=0.13,0.29"
    )
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert r1.stats == r2.stats
    assert r1.manifest == r2.manifest
    assert r1.manifest["config"]["N"] == 16


@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize(
    "kind, n",
    [
        ("central_fiber_rigidity", 1),
        ("coset_twist_orbit", 50),
        ("abelian_hyperbolic_test", 50),
        ("submersion_census", 8),
        ("mcg_orbit_distribution", 11),
    ],
)
def test_reports_are_plain_json(kind, n, trials):
    # No numpy scalar reaches a report: json.dumps needs no default=.
    config = ExperimentConfig(
        kind=kind, seed=5, n=n, word_length=4, trials=trials, c_spec="angles=0.13,0.29"
    )
    json.dumps(run_experiment(config).to_json_dict())


def test_run_experiment_trials_nest():
    config = ExperimentConfig(
        kind="submersion_census", seed=7, n=8, trials=3, c_spec="angles=0.13,0.29"
    )
    report = run_experiment(config)
    assert len(report.stats["trials"]) == 3
    assert report.stats["trials_passed"] == 3
    assert report.passed
    # Multi-trial manifests keep the per-trial keys of a single trial.
    config = ExperimentConfig(
        kind="coset_twist_orbit", seed=7, n=50, trials=2, c_spec="angles=0.13,0.29"
    )
    report = run_experiment(config)
    assert report.manifest["anchor"] == "angles=0.13,0.29"
    assert report.manifest["b_sampler"] == "haar"
    assert report.manifest["trials"] == 2


def test_run_experiment_config_errors():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(kind="nope", seed=1))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(kind="coset_twist_orbit", seed=1))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(kind="abelian_hyperbolic_test", seed=1))
    with pytest.raises(ConfigError):
        run_experiment(
            ExperimentConfig(
                kind="abelian_hyperbolic_test", seed=1, c_spec="trace=0,0"
            )
        )


def test_run_experiment_central_fiber_redirect():
    config = ExperimentConfig(
        kind="submersion_census", seed=3, n=4, c_spec="angles=0,0"
    )
    with pytest.raises(CentralFiberError):
        run_experiment(config)
