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
  calibrated by an identical-start null run.
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
    base_point,
    central_fiber_point,
    centralizer_intersection,
    d_kappa_matrix,
    d_kappa_rank,
    fiber_residual,
    is_central,
)
from .flows import flow_walk_stack, random_flow_walk
from .mcg import (
    TwistWord,
    apply_word,
    apply_word_stack,
    homology_action,
    is_hyperbolic,
    random_word_indices,
)
from .su3 import IDENTITY, OMEGA, circle_distance, dagger, haar_random, torus_frame
from .traces import (
    CHARACTER_NAMES,
    REAL_COLUMN_NAMES,
    char_poly_roots,
    character,
    character_distance,
    character_reals,
    character_values,
    is_generic,
)

# Flow-walk length used to manufacture starting points for the two-start
# comparison; recorded in every report that uses it.
START_WALK_STEPS = 256

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
    height: int = 20
    tol: float = 1e-9
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

    kind: str
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


def coset_twist_orbit(
    p: RepPoint, n: int, height: int = 20, tol: float = 1e-9
) -> ExperimentReport:
    """Orbit statistics of (a, b a^k) for k < n, driven spectrally.

    In the eigenframe of the regular anchor a, Tr(b a^k) is a sum of three
    geometric progressions, so the whole orbit is iterated exactly on the
    eigenvalue angles.  Reports Weyl averages on a logarithmic ladder, the
    distribution of the real trace part, the first exact return time if one
    occurs within n steps, and the geometric-series bound
    |W_n| <= (1/n) sum_i |b_ii| min(n, 2 / |1 - lambda_i|)
    that the average must respect regardless of genericity.
    """
    frame = torus_frame(p.a)  # NonRegularElementError for degenerate anchors
    theta = frame.angles
    generic = bool(is_generic(p.a, height, tol))
    v = frame.eigenvectors
    d = np.diagonal(dagger(v) @ p.b @ v)

    k = np.arange(int(n))
    phases = np.mod(k[:, None] * theta[None, :], 1.0)
    orbit = np.exp(2j * np.pi * phases) @ d

    ladder = sorted({max(1, n // 100), max(1, n // 10), n})
    csum = np.cumsum(orbit)
    weyl = {m: csum[m - 1] / m for m in ladder}
    w_n = weyl[n]

    # First k >= 1 with a^k = Id within tolerance, i.e. all angles back at 0.
    dist = circle_distance(phases[1:]).max(axis=1) if n > 1 else np.empty(0)
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
    thresholds = {"abs_weyl_avg_max": bound + 1e-9}
    passed = stats["abs_weyl_avg"] <= thresholds["abs_weyl_avg_max"]
    return ExperimentReport(
        kind="coset_twist_orbit", stats=stats, thresholds=thresholds, passed=passed
    )


def mcg_orbit_distribution(
    start_one: RepPoint,
    start_two: RepPoint,
    word_length: int,
    n: int,
    rng: np.random.Generator,
    ks_max: float = 0.05,
    null_ks_max: float = 0.02,
) -> ExperimentReport:
    """Two-start character ensemble comparison under random twist words.

    From each start, n samples are drawn by applying an independent random
    word of the given length; the two ensembles are compared coordinate by
    coordinate with the two-sample KS distance, and a third ensemble from
    the first start calibrates the identical-start null.  The constant
    boundary-trace coordinate is excluded from the aggregate (see the
    comment below) but still listed per coordinate.  Closeness of the
    two-start distances to the null is evidence for, never proof of, the
    starts sharing an orbit-closure distribution.
    """
    if float(np.abs(start_one.c - start_two.c).max()) > FIBER_TOL:
        raise FiberMismatchError("the two starts lie on different fibers")

    ensembles = []
    residual_worst = 0.0
    for start in (start_one, start_two, start_one):
        indices = random_word_indices(n, word_length, rng)
        a, b = apply_word_stack(
            indices,
            np.broadcast_to(start.a, (n, 3, 3)),
            np.broadcast_to(start.b, (n, 3, 3)),
        )
        residual_worst = max(residual_worst, float(fiber_residual(a, b, start.c).max()))
        ensembles.append(character_reals(character_values(a, b)))
    ens_one, ens_two, ens_null = ensembles

    ks_pair = [ks_statistic(ens_one[:, j], ens_two[:, j]) for j in range(18)]
    ks_null = [ks_statistic(ens_one[:, j], ens_null[:, j]) for j in range(18)]

    # The commutator trace is constant on the fiber, so its two ensembles
    # are point masses a roundoff apart and their KS distance is 1 by
    # definition.  It is excluded from the distributional aggregate and
    # enforced through the fiber residual instead; the per-coordinate
    # listing still reports it.
    comm = 2 * CHARACTER_NAMES.index("tr_comm")
    distributed = [j for j in range(18) if j not in (comm, comm + 1)]

    base_vals = np.array(character(start_one).values)
    spread = float(
        np.abs(
            (ens_one[:, 0::2] + 1j * ens_one[:, 1::2]) - base_vals
        ).max()
    )

    stats = {
        "n": int(n),
        "word_length": int(word_length),
        "max_ks": float(max(ks_pair[j] for j in distributed)),
        "max_null_ks": float(max(ks_null[j] for j in distributed)),
        "ks_per_coordinate": {
            name: float(v) for name, v in zip(REAL_COLUMN_NAMES, ks_pair)
        },
        "null_ks_per_coordinate": {
            name: float(v) for name, v in zip(REAL_COLUMN_NAMES, ks_null)
        },
        "start_one_char_spread": spread,
        "max_fiber_residual": residual_worst,
        "all_on_fiber": residual_worst <= FIBER_TOL,
        "sampler": "independent random twist words per sample",
    }
    thresholds = {"ks_max": ks_max, "null_ks_max": null_ks_max}
    passed = (
        stats["max_ks"] <= ks_max
        and stats["max_null_ks"] <= null_ks_max
        and stats["all_on_fiber"]
    )
    return ExperimentReport(
        kind="mcg_orbit_distribution", stats=stats, thresholds=thresholds, passed=passed
    )


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
    gap_max: float = 0.01,
) -> ExperimentReport:
    """Orbit of a hyperbolic twist word on commuting diagonal pairs.

    The word acts through its homology matrix on the angle rows
    (theta_a_i, theta_b_i); the orbit is iterated in exact integer
    arithmetic modulo a fixed denominator, so period detection is exact and
    there is no drift at any orbit length.  Birkhoff averages of the
    character coordinates are compared against a Monte Carlo average over
    the angle torus.
    """
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

    step = np.asarray(m, dtype=np.int64) % modulus
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
        # th[..., i, 0] and th[..., i, 1] are the free angles of a and b.
        def unit(t):
            return np.exp(2j * np.pi * t)

        ta, tb = th[..., 0], th[..., 1]
        third = lambda t: -t[..., 0] - t[..., 1]
        za = unit(ta[..., 0]) + unit(ta[..., 1]) + unit(third(ta))
        zb = unit(tb[..., 0]) + unit(tb[..., 1]) + unit(third(tb))
        zab = unit(ta[..., 0] + tb[..., 0]) + unit(ta[..., 1] + tb[..., 1]) + unit(
            third(ta) + third(tb)
        )
        zabi = unit(ta[..., 0] - tb[..., 0]) + unit(ta[..., 1] - tb[..., 1]) + unit(
            third(ta) - third(tb)
        )
        return {"tr_a": za, "tr_b": zb, "tr_ab": zab, "tr_ab_inv": zabi}

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
    thresholds = {"max_gap": gap_max}
    passed = stats["periodic"] or stats["max_gap"] <= gap_max
    return ExperimentReport(
        kind="abelian_hyperbolic_test", stats=stats, thresholds=thresholds, passed=passed
    )


def central_fiber_rigidity() -> ExperimentReport:
    """Rigidity checks at the distinguished pair over omega Id.

    The commutator residual, the order of the group the pair generates
    (expected 27), the cube identities, and the maximal character movement
    under all four-letter twist words (expected roundoff: the fiber is a
    single point up to conjugation, and characters do not see conjugation).
    """
    p = central_fiber_point(1)
    a0, b0 = p.a, p.b
    kappa_residual = float(np.abs(a0 @ b0 @ dagger(b0 @ a0) - OMEGA * IDENTITY).max())
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

    base = character(p)
    worst = 0.0
    for letters in itertools.product("aAbB", repeat=4):
        moved = apply_word(TwistWord(letters), p)
        worst = max(worst, character_distance(base, character(moved)))

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
        "kappa_residual_max": 1e-14,
        "group_order": 27,
        "cube_residual_max": 1e-13,
        "max_word_character_distance_max": 1e-9,
    }
    passed = (
        kappa_residual <= 1e-14
        and order == 27
        and cube_residual <= 1e-13
        and worst <= 1e-9
    )
    return ExperimentReport(
        kind="central_fiber_rigidity", stats=stats, thresholds=thresholds, passed=passed
    )


def submersion_census(
    c: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    walk_steps: int = 128,
    height: int = 20,
    tol: float = 1e-9,
) -> ExperimentReport:
    """Rank census of the commutator differential over one non-central fiber.

    Samples fiber points by independent random flow walks from the fiber's
    base point, reports the fraction with full-rank differential and with
    generic second element, and cross-checks the rank against the
    centralizer-intersection criterion pointwise.
    """
    c = np.asarray(c, dtype=complex)
    if is_central(c, tol=CENTRAL_LABEL_TOL):
        raise CentralFiberError(
            "the fiber label is central; use central_fiber_rigidity for the"
            " omega Id fibers or abelian_point for commuting pairs"
        )
    p0 = base_point(c)
    a, b = flow_walk_stack(
        np.broadcast_to(p0.a, (samples, 3, 3)),
        np.broadcast_to(p0.b, (samples, 3, 3)),
        walk_steps,
        rng,
    )
    residuals = fiber_residual(a, b, c)
    ranks = d_kappa_rank(d_kappa_matrix(a, b))
    inters = centralizer_intersection(a, b)
    base_rank = int(d_kappa_rank(d_kappa_matrix(p0.a, p0.b)))

    stats = {
        "samples": int(samples),
        "walk_steps": int(walk_steps),
        "rank8_fraction": float(np.mean(ranks == 8)),
        "generic_b_fraction": float(np.mean(is_generic(b, height, tol))),
        "rank_matches_intersection": bool(np.all((ranks == 8) == (inters == 0))),
        "base_point_rank": base_rank,
        "max_fiber_residual": float(residuals.max()),
        "all_on_fiber": bool(residuals.max() <= FIBER_TOL),
        "sampler": "random flow walks from the fiber base point",
    }
    thresholds = {"rank8_fraction_min": 0.99}
    passed = (
        stats["rank8_fraction"] >= 0.99
        and stats["rank_matches_intersection"]
        and base_rank == 8
        and stats["all_on_fiber"]
    )
    return ExperimentReport(
        kind="submersion_census", stats=stats, thresholds=thresholds, passed=passed
    )


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


# A trace label on a triple characteristic root resolves with about
# cube-root-of-eps clustering error (1e-5), so the centrality test for
# labels must sit above that floor; the central fibers are 5.2 apart.
CENTRAL_LABEL_TOL = 1e-4


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
        angles = np.array([values[0], values[1], -values[0] - values[1]])
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

    manifest = {
        "kind": config.kind,
        "seed": int(config.seed),
        "trials": int(config.trials),
        "config": {
            "c_spec": config.c_spec,
            "N": int(config.n),
            "word_length": int(config.word_length),
            "height": int(config.height),
            "tol": float(config.tol),
        },
    }
    if config.trials == 1:
        report = reports[0]
        report.manifest.update(manifest)
        return report
    stats = {
        "trials": [r.stats for r in reports],
        "trials_passed": sum(1 for r in reports if r.passed),
    }
    return ExperimentReport(
        kind=config.kind,
        stats=stats,
        thresholds=reports[0].thresholds,
        passed=all(r.passed for r in reports),
        manifest=manifest,
    )


def _run_single(config: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    kind = config.kind
    if kind == "coset_twist_orbit":
        if not config.c_spec:
            raise ConfigError(
                "coset_twist_orbit needs c_spec (the anchor's angles or trace)"
            )
        anchor = matrix_from_c_spec(config.c_spec)
        p = RepPoint.from_pair(anchor, haar_random(rng))
        report = coset_twist_orbit(p, config.n, config.height, config.tol)
        report.manifest["anchor"] = config.c_spec
        report.manifest["b_sampler"] = "haar"
        return report

    if kind == "mcg_orbit_distribution":
        c = matrix_from_c_spec(config.c_spec) if config.c_spec else haar_random(rng)
        base = base_point(c)
        start_one = random_flow_walk(base, START_WALK_STEPS, rng)
        start_two = random_flow_walk(base, START_WALK_STEPS, rng)
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
        return submersion_census(
            c, config.n, rng, height=config.height, tol=config.tol
        )

    raise ConfigError(f"unknown experiment kind {kind!r}")
