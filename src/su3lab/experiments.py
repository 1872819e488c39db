"""Seeded statistical experiments probing the dynamics at desk scale.

Each experiment returns an ExperimentReport whose statistics are a pure
function of its configuration (seed included); thresholds are engineering
choices recorded next to the values they judge.  Equidistribution and
ergodicity are not finitely decidable, so every pass here is statistical
evidence, not verification; the reports say which sampler produced what.

The five experiments:

- coset_twist_orbit: Weyl averages of Tr(b a^n) along the twist orbit of a
  regular anchor a, with a per-eigenvalue geometric-series bound and an
  exact period detector.
- mcg_orbit_distribution: two-start comparison of character ensembles under
  independent random twist words, per-coordinate two-sample KS distances,
  calibrated by an identical-start null run; both gates share one
  Kolmogorov-law threshold at a family-wise rate of 1e-3 per trial.
- abelian_hyperbolic_test: exact integer-arithmetic orbit of a hyperbolic
  twist word on commuting diagonal pairs, Birkhoff averages against a
  Monte Carlo torus average.
- central_fiber_rigidity: the distinguished pair over omega Id is a single
  point up to conjugation; group order, cube identities, and character
  invariance under all four-letter words.
- submersion_census: fraction of walk-sampled fiber points where the
  commutator differential has full rank, cross-checked against the
  centralizer-intersection criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import (
    CentralFiberError,
    ConfigError,
    FiberMismatchError,
    NonHyperbolicWordError,
)
from .fiber import (
    FIBER_TOL,
    RepPoint,
    _d_kappa_from_adjoints,
    _intersection_from_adjoints,
    base_point,
    central_fiber_point,
    d_kappa_matrix,
    d_kappa_rank,
    fiber_residual,
    is_central,
)
from .flows import walk_from
from .mcg import (
    TwistWord,
    apply_word,
    apply_word_stack,
    homology_action,
    is_hyperbolic,
    random_word_indices,
)
from .su3 import (
    IDENTITY,
    adjoint_matrix,
    circle_distance,
    dagger,
    haar_random,
    torus_frame,
)
from .traces import (
    GENERICITY_HEIGHT,
    GENERICITY_TOL,
    REAL_COLUMN_NAMES,
    angles_have_relation,
    char_poly_roots,
    character_reals,
    character_values,
    is_generic,
)

# Flow-walk lengths that manufacture the two-start comparison's starting
# points and each submersion_census sample; recorded in their reports.
START_WALK_STEPS = 256
CENSUS_WALK_STEPS = 128

# Pass limits: mcg_orbit_distribution's family-wise KS false-alarm rate per
# trial (its KS threshold follows from N), abelian_hyperbolic_test's gap,
# and coset_twist_orbit's roundoff slack over its geometric-series bound.
KS_FAMILY_RATE = 1e-3
GAP_MAX = 0.01
WEYL_BOUND_SLACK = 1e-9

# mcg_orbit_distribution's gated columns: the re/im parts of tr_a, tr_b,
# tr_ab and tr_ab_inv.  The tr_inv_* columns are their conjugates, which KS
# does not see, and tr_comm is constant on the fiber, which the fiber
# residual enforces.
GATED_COLUMNS = REAL_COLUMN_NAMES[:8]

# submersion_census's pass limit: the least fraction of full-rank samples.
RANK8_FRACTION_MIN = 0.99

# central_fiber_rigidity's pass limits: the commutator and cube residuals,
# the order of the group the pair generates, and the largest character
# movement under the four-letter words.
KAPPA_RESIDUAL_MAX = 1e-14
CENTRAL_GROUP_ORDER = 27
CUBE_RESIDUAL_MAX = 1e-13
WORD_CHARACTER_DISTANCE_MAX = 1e-9

# Grid modulus for the exact abelian orbit when the starting angles are not
# recognizably rational: a Mersenne prime small enough that the int64 state
# update cannot overflow.
GRID_MODULUS = 2**31 - 1

_HIST_BINS = 60
_HIST_RANGE = (-3.0, 3.0)


@dataclass
class ExperimentConfig:
    """Everything an experiment run depends on; the seed makes it total."""

    kind: str
    seed: int
    c_spec: str | None = None
    n: int = 10_000
    word_length: int = 200
    trials: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.n < 1:
            raise ConfigError("N must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.word_length < 0:
            raise ConfigError("word_length must be nonnegative")


@dataclass
class ExperimentReport:
    """Statistics, the thresholds they were judged against, and metadata."""

    stats: dict
    thresholds: dict
    passed: bool
    manifest: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = dict(self.stats)
        out["thresholds"] = self.thresholds
        out["pass"] = self.passed
        out["manifest"] = self.manifest
        return out


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance (the statistic only).

    Sup of the ECDF gap, evaluated on the union of the data points, where
    it is attained.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


def coset_twist_orbit(p: RepPoint, n: int) -> ExperimentReport:
    """Orbit statistics of (a, b a^k) for k < n, driven spectrally.

    In the eigenframe of the regular anchor a, Tr(b a^k) is a sum of three
    geometric progressions, so the whole orbit is iterated exactly on the
    eigenvalue angles.  Reports Weyl averages on a logarithmic ladder, the
    distribution of the real trace part, the first exact return time if one
    occurs within n steps, and the geometric-series bound
    |W_n| <= (1/n) sum_i |b_ii| min(n, 2 / |1 - lambda_i|)
    that the average must respect regardless of genericity.  Raises
    ConfigError for n < 1, as ExperimentConfig does.
    """
    if n < 1:
        raise ConfigError("N must be at least 1")
    theta, v = torus_frame(p.a)  # NonRegularElementError for degenerate anchors
    # torus_frame has checked regularity, so genericity is the relation test.
    generic = not angles_have_relation(theta)
    d = np.diagonal(dagger(v) @ p.b @ v)

    k = np.arange(int(n))
    phases = np.mod(k[:, None] * theta[None, :], 1.0)
    orbit = np.exp(2j * np.pi * phases) @ d

    ladder = sorted({max(1, n // 100), max(1, n // 10), n})
    csum = np.cumsum(orbit)
    weyl = {m: csum[m - 1] / m for m in ladder}
    w_n = weyl[n]

    # First k >= 1 with a^k = Id within tolerance, i.e. all angles back at 0.
    dist = circle_distance(phases[1:]).max(axis=1)
    hits = np.flatnonzero(dist <= 1e-9)
    period = int(hits[0]) + 1 if hits.size else 0

    sine = 2 * np.sin(np.pi * circle_distance(theta))
    series = np.divide(2.0, n * sine, where=sine > 0, out=np.full(3, np.inf))
    bound = float((np.abs(d) * np.minimum(1.0, series)).sum())

    re_values = orbit.real
    hist, _ = np.histogram(re_values, bins=_HIST_BINS, range=_HIST_RANGE)

    stats = {
        "n": int(n),
        "anchor_angles": [float(t) for t in theta],
        "anchor_generic": generic,
        "weyl_ladder_n": [int(m) for m in ladder],
        "weyl_ladder_abs": [float(abs(weyl[m])) for m in ladder],
        "weyl_avg_re": float(w_n.real),
        "weyl_avg_im": float(w_n.imag),
        "abs_weyl_avg": float(abs(w_n)),
        "weyl_bound": bound,
        "period": period,
        "periodic": period > 0,
        "re_trace_mean": float(re_values.mean()),
        "re_trace_std": float(re_values.std()),
        "re_trace_hist": [int(c) for c in hist],
    }
    thresholds = {"abs_weyl_avg_max": bound + WEYL_BOUND_SLACK}
    passed = stats["abs_weyl_avg"] <= thresholds["abs_weyl_avg_max"]
    return ExperimentReport(stats=stats, thresholds=thresholds, passed=passed)


def mcg_orbit_distribution(
    start_one: RepPoint,
    start_two: RepPoint,
    word_length: int,
    n: int,
    rng: np.random.Generator,
) -> ExperimentReport:
    """Two-start character ensemble comparison under random twist words.

    From each start, n samples are drawn by applying an independent random
    word of the given length; the two ensembles are compared coordinate by
    coordinate with the two-sample KS distance, and a third ensemble from
    the first start calibrates the identical-start null.  Both gates use one
    Kolmogorov-law threshold at a family-wise rate of 1e-3 per trial.
    Closeness of the two-start distances to the null is evidence for, never
    proof of, the starts sharing an orbit-closure distribution.  Raises
    ConfigError for n < 1 or word_length < 0, as ExperimentConfig does, and
    for n <= 10, where the KS threshold is at least 1.
    """
    if n < 1:
        raise ConfigError("N must be at least 1")
    if word_length < 0:
        raise ConfigError("word_length must be nonnegative")
    if float(np.abs(start_one.c - start_two.c).max()) > FIBER_TOL:
        raise FiberMismatchError("the two starts lie on different fibers")
    if is_central(start_one.c):
        raise CentralFiberError(
            "the starts lie on a central fiber; central_fiber_rigidity covers the"
            " omega Id fibers and abelian_hyperbolic_test commuting pairs"
        )
    # Two-sample KS with n points a side exceeds sqrt(ln(2 / alpha) / n) with
    # probability alpha by the Kolmogorov law; alpha splits the family rate
    # over both gates and all gated columns.  A KS distance is at most 1, so
    # a threshold of 1 or more is a gate that cannot fail.
    alpha = KS_FAMILY_RATE / (2 * len(GATED_COLUMNS))
    ks_max = float(np.sqrt(np.log(2 / alpha) / n))
    if ks_max >= 1.0:
        floor = int(np.log(2 / alpha)) + 1
        raise ConfigError(
            f"N = {n} puts the KS threshold at {ks_max:.3f}, which no KS distance"
            f" can exceed; mcg_orbit_distribution needs N >= {floor}"
        )

    (ens_one, res_one), (ens_two, res_two), (ens_null, res_null) = [
        _word_ensemble(start, word_length, n, rng) for start in (start_one, start_two, start_one)
    ]

    ks_pair = [ks_statistic(x, y) for x, y in zip(ens_one.T, ens_two.T)]
    ks_null = [ks_statistic(x, y) for x, y in zip(ens_one.T, ens_null.T)]
    residual_worst = max(res_one, res_two, res_null)
    base_vals = character_values(start_one.a, start_one.b)[: len(GATED_COLUMNS) // 2]
    spread = float(np.abs(ens_one.view(complex) - base_vals).max())

    stats = {
        "n": int(n),
        "word_length": int(word_length),
        "max_ks": max(ks_pair),
        "max_null_ks": max(ks_null),
        "ks_per_coordinate": dict(zip(GATED_COLUMNS, ks_pair)),
        "null_ks_per_coordinate": dict(zip(GATED_COLUMNS, ks_null)),
        "start_one_char_spread": spread,
        "max_fiber_residual": residual_worst,
        "all_on_fiber": residual_worst <= FIBER_TOL,
        "sampler": "independent random twist words per sample",
    }
    thresholds = {"ks_max": ks_max, "ks_family_rate": KS_FAMILY_RATE}
    passed = max(ks_pair + ks_null) <= ks_max and stats["all_on_fiber"]
    return ExperimentReport(stats=stats, thresholds=thresholds, passed=passed)


def _word_ensemble(
    start: RepPoint, word_length: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """One ensemble of mcg_orbit_distribution: an independent random word of
    word_length letters on each of n copies of start.  Returns the
    GATED_COLUMNS reals of the moved pairs as a contiguous (n, 8) array and
    their worst fiber residual."""
    a, b = apply_word_stack(
        random_word_indices(n, word_length, rng),
        np.broadcast_to(start.a, (n, 3, 3)),
        np.broadcast_to(start.b, (n, 3, 3)),
    )
    # Nothing keeps the sliced values: the full (n, 9) array is freed first.
    reals = character_reals(character_values(a, b)[:, : len(GATED_COLUMNS) // 2])
    return reals, float(fiber_residual(a, b, start.c).max())


def _abelian_modulus(angles: tuple[float, ...]) -> tuple[int, bool]:
    """Pick the working modulus for the exact abelian orbit.

    Angles recognizable as rationals with a small common denominator run on
    that exact denominator (periods then mean true torsion); anything else
    runs on a fixed prime grid fine enough that replacing the start by the
    nearest grid point is statistically invisible at desk-scale orbit
    lengths.
    """
    fracs = [Fraction(float(x) % 1.0).limit_denominator(10_000) for x in angles]
    if max(abs(float(f) - (float(x) % 1.0)) for f, x in zip(fracs, angles)) <= 1e-12:
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
            if lcm > GRID_MODULUS:
                return GRID_MODULUS, False
        return lcm, True
    return GRID_MODULUS, False


def abelian_hyperbolic_test(
    angles: tuple[float, float, float, float],
    word: TwistWord,
    n: int,
    rng: np.random.Generator,
) -> ExperimentReport:
    """Orbit of a hyperbolic twist word on commuting diagonal pairs.

    The word acts through its homology matrix on the angle rows
    (theta_a_i, theta_b_i); the orbit is iterated in exact integer
    arithmetic modulo a fixed denominator, so period detection is exact and
    there is no drift at any orbit length.  Birkhoff averages of the
    character coordinates are compared against a Monte Carlo average over
    the angle torus.  Raises ConfigError for n < 1, as ExperimentConfig does,
    for angles that are not four numbers, and for a NaN or inf angle.
    """
    if n < 1:
        raise ConfigError("N must be at least 1")
    if np.shape(angles) != (4,):
        raise ConfigError(f"abelian angles must be four numbers, got {np.shape(angles)}")
    if not np.isfinite(np.asarray(angles, dtype=float)).all():
        raise ConfigError("abelian angles must be finite")
    m = homology_action(word)
    htrace = int(m[0, 0] + m[1, 1])
    if not is_hyperbolic(m):
        raise NonHyperbolicWordError(
            f"word {word} has homology trace {htrace}; need |trace| > 2"
        )

    modulus, exact = _abelian_modulus(tuple(angles))
    state = np.empty((2, 2), dtype=np.int64)
    for i in range(2):
        state[i, 0] = round((float(angles[i]) % 1.0) * modulus) % modulus
        state[i, 1] = round((float(angles[2 + i]) % 1.0) * modulus) % modulus

    step = (m % modulus).astype(np.int64)
    n = int(n)
    traj = np.empty((n, 2, 2), dtype=np.int64)
    traj[0] = state
    filled = 1
    power = step  # word matrix to the power `filled`, reduced mod modulus
    while filled < n:
        take = min(filled, n - filled)
        traj[filled : filled + take] = (traj[:take] @ power) % modulus
        filled += take
        if filled < n:
            power = (power @ power) % modulus

    returns = np.flatnonzero(np.all(traj[1:] == traj[0], axis=(1, 2)))
    period = int(returns[0]) + 1 if returns.size else 0

    def observables(th: np.ndarray) -> dict[str, np.ndarray]:
        # th[..., i, 0] and th[..., i, 1] are the free angles of a and b; the
        # third angle of each is -th[..., 0, j] - th[..., 1, j].
        th = np.concatenate([th, -th[..., :1, :] - th[..., 1:, :]], axis=-2)
        ta, tb = th[..., 0], th[..., 1]

        def tr(t):
            e = np.exp(2j * np.pi * t)
            return e[..., 0] + e[..., 1] + e[..., 2]

        return {"tr_a": tr(ta), "tr_b": tr(tb), "tr_ab": tr(ta + tb), "tr_ab_inv": tr(ta - tb)}

    orbit_obs = observables(traj.astype(float) / modulus)
    haar_obs = observables(rng.random((n, 2, 2)))

    # The ladder compares orbit and Monte Carlo averages at matching sample
    # counts, so both error terms shrink together as N grows.
    n_small = max(1, n // 10)
    gaps = {}
    gaps_small = {}
    for name in orbit_obs:
        gaps[name] = float(abs(orbit_obs[name].mean() - haar_obs[name].mean()))
        gaps_small[name] = float(
            abs(orbit_obs[name][:n_small].mean() - haar_obs[name][:n_small].mean())
        )

    stats = {
        "n": n,
        "word": str(word),
        "homology_trace": htrace,
        "modulus": int(modulus),
        "exact_rational_start": exact,
        "period": period,
        "periodic": period > 0,
        "gap_tr_a": gaps["tr_a"],
        "gap_tr_b": gaps["tr_b"],
        "gap_tr_ab": gaps["tr_ab"],
        "gap_tr_ab_inv": gaps["tr_ab_inv"],
        "max_gap": max(gaps.values()),
        "ladder_n": [n_small, n],
        "ladder_max_gap": [max(gaps_small.values()), max(gaps.values())],
        "haar_samples": n,
        "sampler": "exact integer orbit vs Monte Carlo torus average",
    }
    thresholds = {"max_gap": GAP_MAX}
    passed = stats["periodic"] or stats["max_gap"] <= GAP_MAX
    return ExperimentReport(stats=stats, thresholds=thresholds, passed=passed)


def central_fiber_rigidity() -> ExperimentReport:
    """Rigidity checks at the distinguished pair over omega Id.

    The commutator residual, the order of the group the pair generates
    (expected 27), the cube identities, and the maximal character movement
    under all four-letter twist words (expected roundoff: the fiber is a
    single point up to conjugation, and characters do not see conjugation).
    """
    p = central_fiber_point()
    a0, b0 = p.a, p.b
    kappa_residual = p.residual()
    cube_residual = float(
        max(
            np.abs(np.linalg.matrix_power(a0, 3) - IDENTITY).max(),
            np.abs(np.linalg.matrix_power(b0, 3) - IDENTITY).max(),
        )
    )

    elements = [a0, b0]
    grew = True
    while grew:
        grew = False
        for x in list(elements):
            for y in list(elements):
                prod = x @ y
                if all(np.abs(prod - e).max() > 1e-9 for e in elements):
                    elements.append(prod)
                    grew = True
    order = len(elements)

    base = character_values(a0, b0)
    worst = 0.0
    for letters in itertools.product("aAbB", repeat=4):
        moved = apply_word(TwistWord(letters), p)
        moved_values = character_values(moved.a, moved.b)
        worst = max(worst, float(np.abs(moved_values - base).max()))

    stats = {
        "kappa_residual": kappa_residual,
        "group_order": order,
        "cube_residual": cube_residual,
        "max_word_character_distance": worst,
        "words_checked": 256,
        "tr_a_re": float(np.trace(a0).real),
        "tr_a_im": float(np.trace(a0).imag),
    }
    thresholds = {
        "kappa_residual_max": KAPPA_RESIDUAL_MAX,
        "group_order": CENTRAL_GROUP_ORDER,
        "cube_residual_max": CUBE_RESIDUAL_MAX,
        "max_word_character_distance_max": WORD_CHARACTER_DISTANCE_MAX,
    }
    passed = (
        kappa_residual <= KAPPA_RESIDUAL_MAX
        and order == CENTRAL_GROUP_ORDER
        and cube_residual <= CUBE_RESIDUAL_MAX
        and worst <= WORD_CHARACTER_DISTANCE_MAX
    )
    return ExperimentReport(stats=stats, thresholds=thresholds, passed=passed)


def submersion_census(
    c: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> ExperimentReport:
    """Rank census of the commutator differential over one non-central fiber.

    Samples fiber points by independent random flow walks from the fiber's
    base point, reports the fraction with full-rank differential and with
    generic second element, and cross-checks the rank against the
    centralizer-intersection criterion pointwise.  Raises ConfigError for
    samples < 1, as ExperimentConfig does.
    """
    if samples < 1:
        raise ConfigError("N must be at least 1")
    c = np.asarray(c, dtype=complex)
    if is_central(c):
        raise CentralFiberError(
            "the fiber label is central; use central_fiber_rigidity for the"
            " omega Id fibers or abelian_hyperbolic_test for commuting pairs"
        )
    p0 = base_point(c)
    a, b = walk_from(p0, samples, CENSUS_WALK_STEPS, rng)
    residuals = fiber_residual(a, b, c)
    # One adjoint stack per element, for both rank layers.
    ad_a, ad_b = adjoint_matrix(a), adjoint_matrix(b)
    ranks = d_kappa_rank(_d_kappa_from_adjoints(ad_a, ad_b))
    inters = _intersection_from_adjoints(ad_a, ad_b)
    base_rank = int(d_kappa_rank(d_kappa_matrix(p0.a, p0.b)))

    stats = {
        "samples": int(samples),
        "walk_steps": CENSUS_WALK_STEPS,
        "rank8_fraction": float(np.mean(ranks == 8)),
        "generic_b_fraction": float(np.mean(is_generic(b))),
        "rank_matches_intersection": bool(np.all((ranks == 8) == (inters == 0))),
        "base_point_rank": base_rank,
        "max_fiber_residual": float(residuals.max()),
        "all_on_fiber": bool(residuals.max() <= FIBER_TOL),
        "sampler": "random flow walks from the fiber base point",
    }
    thresholds = {"rank8_fraction_min": RANK8_FRACTION_MIN}
    passed = (
        stats["rank8_fraction"] >= RANK8_FRACTION_MIN
        and stats["rank_matches_intersection"]
        and base_rank == 8
        and stats["all_on_fiber"]
    )
    return ExperimentReport(stats=stats, thresholds=thresholds, passed=passed)


def resolve_c_spec(spec: str) -> tuple[str, tuple[float, ...]]:
    """Parse a fiber/anchor label: 'trace=re,im' or 'angles=t1,t2[,t3,t4]'."""
    s = spec.strip()
    for prefix in ("trace=", "angles="):
        if s.startswith(prefix):
            body = s[len(prefix):]
            try:
                values = tuple(float(v) for v in body.split(","))
            except ValueError as exc:
                raise ConfigError(f"could not parse c_spec numbers in {spec!r}") from exc
            if not all(np.isfinite(values)):
                raise ConfigError(f"c_spec numbers must be finite, got {spec!r}")
            kind = prefix[:-1]
            if kind == "trace" and len(values) != 2:
                raise ConfigError("c_spec trace= needs exactly two numbers: re,im")
            if kind == "angles" and len(values) not in (2, 4):
                raise ConfigError("c_spec angles= needs two (or four) numbers")
            return kind, values
    raise ConfigError(
        f"c_spec must start with 'trace=' or 'angles=', got {spec!r}"
    )


def matrix_from_c_spec(spec: str) -> np.ndarray:
    """Diagonal special unitary matrix named by a c_spec string.

    A trace value is resolved through its characteristic polynomial (so it
    must lie in the trace domain); an angle pair is used directly, with the
    third angle closing the determinant.
    """
    kind, values = resolve_c_spec(spec)
    if kind == "trace":
        angles = char_poly_roots(complex(values[0], values[1]))
    else:
        if len(values) != 2:
            raise ConfigError("matrix labels need exactly two angles")
        third = -values[0] - values[1]
        if not np.isfinite(third):
            raise ConfigError(f"the third angle -t1 - t2 of {spec!r} is not finite")
        angles = np.array([values[0], values[1], third])
    return np.diag(np.exp(2j * np.pi * angles))


# Twist word driving the abelian experiment from config files; its homology
# matrix [[2, 1], [1, 1]] is the standard hyperbolic example.
DEFAULT_HYPERBOLIC_WORD = TwistWord(("a", "b"))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the named experiment from a config, with per-trial seeding.

    Trials use independent child streams of the config seed; a multi-trial
    report nests the per-trial statistics and passes only if every trial
    does.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    reports = [_run_single(config, np.random.Generator(np.random.PCG64(s))) for s in seeds]

    report = reports[0]
    if config.trials > 1:
        stats = {
            "trials": [r.stats for r in reports],
            "trials_passed": sum(1 for r in reports if r.passed),
        }
        report = ExperimentReport(
            stats=stats,
            thresholds=report.thresholds,
            passed=all(r.passed for r in reports),
            # Trial manifest keys come from the config: equal in every trial.
            manifest=dict(report.manifest),
        )
    report.manifest.update(
        {
            "kind": config.kind,
            "seed": int(config.seed),
            "trials": int(config.trials),
            "config": {
                "c_spec": config.c_spec,
                "N": int(config.n),
                "word_length": int(config.word_length),
                "height": GENERICITY_HEIGHT,
                "tol": GENERICITY_TOL,
            },
        }
    )
    return report


def _run_single(config: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    kind = config.kind
    if kind == "coset_twist_orbit":
        if not config.c_spec:
            raise ConfigError(
                "coset_twist_orbit needs c_spec (the anchor's angles or trace)"
            )
        anchor = matrix_from_c_spec(config.c_spec)
        p = RepPoint.from_pair(anchor, haar_random(rng))
        report = coset_twist_orbit(p, config.n)
        report.manifest["anchor"] = config.c_spec
        report.manifest["b_sampler"] = "haar"
        return report

    if kind == "mcg_orbit_distribution":
        c = matrix_from_c_spec(config.c_spec) if config.c_spec else haar_random(rng)
        base = base_point(c)
        # Both starts walk from the base point as one 2-row stack.
        a, b = walk_from(base, 2, START_WALK_STEPS, rng)
        start_one = RepPoint(a=a[0], b=b[0], c=base.c)
        start_two = RepPoint(a=a[1], b=b[1], c=base.c)
        report = mcg_orbit_distribution(
            start_one, start_two, config.word_length, config.n, rng
        )
        report.manifest["start_walk_steps"] = START_WALK_STEPS
        report.manifest["c_sampler"] = "c_spec" if config.c_spec else "haar"
        return report

    if kind == "abelian_hyperbolic_test":
        if not config.c_spec:
            raise ConfigError("abelian_hyperbolic_test needs c_spec angles")
        spec_kind, values = resolve_c_spec(config.c_spec)
        if spec_kind != "angles":
            raise ConfigError("abelian_hyperbolic_test needs angles=, not trace=")
        angles = values if len(values) == 4 else (values[0], values[1], 0.0, 0.0)
        report = abelian_hyperbolic_test(angles, DEFAULT_HYPERBOLIC_WORD, config.n, rng)
        report.manifest["word"] = str(DEFAULT_HYPERBOLIC_WORD)
        return report

    if kind == "central_fiber_rigidity":
        return central_fiber_rigidity()

    if kind == "submersion_census":
        c = matrix_from_c_spec(config.c_spec) if config.c_spec else haar_random(rng)
        return submersion_census(c, config.n, rng)

    raise ConfigError(f"unknown experiment kind {kind!r}")
