"""Acceptance gate: the nine headline checks at full scale.

Each test prints one PASS/FAIL line (visible under pytest -s) and asserts
both the numerical thresholds and its runtime budget.  The distribution
comparison in criterion 8 is statistical evidence for the orbit mixing,
not a verification of it; its thresholds are calibrated null levels.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import kolmogi

from conftest import make_rng
from oracle_kernels import curve_holonomy, random_algebra, trace
from su3lab.cli import main
from su3lab.errors import NonHyperbolicWordError
from su3lab.experiments import (
    DEFAULT_HYPERBOLIC_WORD,
    ExperimentConfig,
    abelian_hyperbolic_test,
    central_fiber_rigidity,
    coset_twist_orbit,
    run_experiment,
    submersion_census,
)
from su3lab.fiber import (
    RepPoint,
    base_point,
    commutator,
    d_kappa_matrix,
    d_kappa_rank,
    fiber_residual,
    is_central,
)
from su3lab.flows import flow_walk_stack, twist_flow, variation
from su3lab.mcg import TwistWord, apply_word_stack, random_word_indices
from su3lab.su3 import (
    IDENTITY,
    OMEGA,
    REGULARITY_GAP,
    angle_gap,
    dagger,
    eigenvalue_angles,
    exp_algebra,
    haar_random,
)
from su3lab.traces import char_poly_roots, delta_defect


def report(number: int, name: str, ok: bool, details: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({details})")
    assert ok, f"{name}: {details}"


def test_acceptance_1_fiber_preservation():
    budget = 120.0
    t0 = time.perf_counter()
    rng = make_rng(101)
    count = 1000
    a = haar_random(rng, size=count)
    b = haar_random(rng, size=count)
    c = commutator(a, b)
    assert not any(is_central(c[i]) for i in range(0, count, 97))

    idx = random_word_indices(count, 1000, rng)
    wa, wb = apply_word_stack(idx, a, b)
    word_residual = float(fiber_residual(wa, wb, c).max())

    fa, fb = flow_walk_stack(a, b, 10_000, rng)
    flow_residual = float(fiber_residual(fa, fb, c).max())

    elapsed = time.perf_counter() - t0
    ok = word_residual <= 1e-9 and flow_residual <= 1e-9 and elapsed <= budget
    report(
        1,
        "fiber preservation",
        ok,
        f"word residual {word_residual:.2e}, flow residual {flow_residual:.2e},"
        f" {elapsed:.1f}s of {budget:.0f}s",
    )


def test_acceptance_2_central_fiber_rigidity():
    t0 = time.perf_counter()
    r = central_fiber_rigidity()
    elapsed = time.perf_counter() - t0
    s = r.stats
    ok = (
        r.passed
        and s["kappa_residual"] <= 1e-14
        and s["group_order"] == 27
        and s["cube_residual"] <= 1e-13
        and s["max_word_character_distance"] <= 1e-9
        and elapsed <= 30.0
    )
    report(
        2,
        "central fiber rigidity",
        ok,
        f"kappa {s['kappa_residual']:.1e}, order {s['group_order']},"
        f" cubes {s['cube_residual']:.1e},"
        f" words {s['max_word_character_distance']:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_3_trace_domain_geometry():
    budget = 30.0
    t0 = time.perf_counter()
    rng = make_rng(103)

    corner_defect = max(
        abs(delta_defect(3.0)),
        abs(delta_defect(3.0 * OMEGA)),
        abs(delta_defect(-1.0)),
    )
    center_value = delta_defect(0.0)

    z = trace(haar_random(rng, size=100_000))
    haar_defect = float(delta_defect(z).max())

    vieta = 0.0
    for w in z[:2000]:
        phases = np.exp(2j * np.pi * char_poly_roots(w))
        vieta = max(vieta, abs(phases.sum() - w), abs(phases.prod() - 1.0))

    elapsed = time.perf_counter() - t0
    ok = (
        corner_defect <= 1e-12
        and abs(center_value + 27.0) <= 1e-12
        and haar_defect <= 1e-9
        and vieta <= 1e-10
        and elapsed <= budget
    )
    report(
        3,
        "trace domain geometry",
        ok,
        f"corners {corner_defect:.1e}, center {center_value:+.1f},"
        f" haar defect {haar_defect:.2e}, vieta {vieta:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_4_flow_identities():
    budget = 30.0
    t0 = time.perf_counter()
    rng = make_rng(104)
    cases = 1000

    x = haar_random(rng, size=cases)
    t = rng.uniform(-2.0, 2.0, size=cases)

    z = np.stack([exp_algebra(t[i] * variation(x[i])) for i in range(cases)])
    centralizing = float(np.abs(z @ x - x @ z).max())

    g = haar_random(rng, size=cases)
    gx = g @ x @ dagger(np.asarray(g))
    equivariance = float(
        np.abs(variation(gx) - g @ variation(x) @ dagger(np.asarray(g))).max()
    )

    h = 1e-5
    fd_gap = 0.0
    for i in range(cases):
        y = random_algebra(rng)
        for part in ("re", "im"):
            f = variation(x[i] if part == "re" else -1j * x[i])
            plus = np.trace(exp_algebra(h * y) @ x[i])
            minus = np.trace(exp_algebra(-h * y) @ x[i])
            fd = (plus - minus).real / (2 * h) if part == "re" else (
                plus - minus
            ).imag / (2 * h)
            fd_gap = max(fd_gap, abs(fd - np.trace(f @ y).real))

    conservation = 0.0
    for i in range(0, cases, 1):
        p = RepPoint.from_pair(x[i], g[i])
        curve, part = ("alpha", "re") if i % 2 else ("alpha_beta", "im")
        q = twist_flow(p, curve, part, t[i])
        before = np.trace(curve_holonomy(p.a, p.b, curve))
        after = np.trace(curve_holonomy(q.a, q.b, curve))
        drift = (after - before).real if part == "re" else (after - before).imag
        conservation = max(conservation, abs(drift))

    elapsed = time.perf_counter() - t0
    ok = (
        centralizing <= 1e-11
        and equivariance <= 1e-12
        and fd_gap <= 1e-6
        and conservation <= 1e-11
        and elapsed <= budget
    )
    report(
        4,
        "flow identities",
        ok,
        f"centralizing {centralizing:.1e}, equivariance {equivariance:.1e},"
        f" finite diff {fd_gap:.1e}, conservation {conservation:.1e},"
        f" {elapsed:.1f}s",
    )


def test_acceptance_5_rank_census():
    budget = 60.0
    t0 = time.perf_counter()
    rng = make_rng(105)

    c = commutator(haar_random(rng), haar_random(rng))
    p = base_point(c)
    assert angle_gap(eigenvalue_angles(p.b)) >= REGULARITY_GAP
    base_rank = int(d_kappa_rank(d_kappa_matrix(p.a, p.b)))
    identity_rank = int(d_kappa_rank(d_kappa_matrix(IDENTITY, IDENTITY)))

    census = submersion_census(c, 1000, rng)
    s = census.stats

    elapsed = time.perf_counter() - t0
    ok = (
        base_rank == 8
        and identity_rank == 0
        and s["rank8_fraction"] >= 0.99
        and s["rank_matches_intersection"]
        and census.passed
        and elapsed <= budget
    )
    report(
        5,
        "rank census",
        ok,
        f"base rank {base_rank}, identity rank {identity_rank}, rank-8 fraction"
        f" {s['rank8_fraction']:.3f}, crosscheck"
        f" {s['rank_matches_intersection']}, {elapsed:.1f}s",
    )


def test_acceptance_6_coset_equidistribution():
    budget = 60.0
    t0 = time.perf_counter()
    rng = make_rng(106)

    angles = (np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0)
    anchor = np.diag(
        np.exp(2j * np.pi * np.array([angles[0], angles[1], -sum(angles)]))
    )
    p = RepPoint.from_pair(anchor, haar_random(rng))
    r = coset_twist_orbit(p, 1_000_000)
    ladder = r.stats["weyl_ladder_abs"]
    decreasing = all(b < a for a, b in zip(ladder, ladder[1:]))
    weyl = r.stats["abs_weyl_avg"]

    torsion = np.diag(np.exp(2j * np.pi * np.array([0.0, 1 / 3, -1 / 3])))
    r3 = coset_twist_orbit(RepPoint.from_pair(torsion, haar_random(rng)), 1000)
    period = r3.stats["period"]

    elapsed = time.perf_counter() - t0
    ok = (
        r.stats["anchor_generic"]
        and weyl <= 0.01
        and decreasing
        and r.passed
        and period == 3
        and elapsed <= budget
    )
    ladder_text = " > ".join(f"{v:.2e}" for v in ladder)
    report(
        6,
        "coset equidistribution",
        ok,
        f"|W| {weyl:.2e} at 1e6, ladder {ladder_text}, torsion period {period},"
        f" {elapsed:.1f}s",
    )


def test_acceptance_7_abelian_hyperbolic_action():
    budget = 60.0
    t0 = time.perf_counter()
    rng = make_rng(107)

    start = (
        np.sqrt(2.0) - 1.0,
        np.sqrt(3.0) - 1.0,
        np.sqrt(5.0) - 2.0,
        0.1234567891,
    )
    r = abelian_hyperbolic_test(start, DEFAULT_HYPERBOLIC_WORD, 1_000_000, rng)
    gap = r.stats["max_gap"]

    rejected = False
    try:
        abelian_hyperbolic_test(start, TwistWord(("a",)), 100, rng)
    except NonHyperbolicWordError:
        rejected = True

    elapsed = time.perf_counter() - t0
    ok = gap <= 0.01 and not r.stats["periodic"] and r.passed and rejected
    ok = ok and elapsed <= budget
    report(
        7,
        "abelian hyperbolic action",
        ok,
        f"birkhoff gap {gap:.2e} at 1e6, parabolic rejected {rejected},"
        f" {elapsed:.1f}s",
    )


def test_acceptance_8_orbit_distribution_evidence():
    budget = 300.0
    t0 = time.perf_counter()

    config = ExperimentConfig(
        kind="mcg_orbit_distribution",
        seed=4,
        trials=2,
        n=26_000,
        word_length=200,
    )
    r = run_experiment(config)
    trials = r.stats["trials"]
    worst_ks = max(t["max_ks"] for t in trials)
    worst_null = max(t["max_null_ks"] for t in trials)
    on_fiber = all(t["all_on_fiber"] for t in trials)
    # The Kolmogorov-law threshold at N = 26 000 is at most the null level 0.02.
    ks_max = r.thresholds["ks_max"]
    law = kolmogi(1e-3 / 16) * np.sqrt(2 / config.n)

    elapsed = time.perf_counter() - t0
    ok = (
        r.passed
        and len(trials) == 2
        and worst_ks <= 0.05
        and worst_null <= 0.02
        and ks_max == pytest.approx(law, rel=1e-12)
        and ks_max <= 0.02
        and on_fiber
        and elapsed <= budget
    )
    report(
        8,
        "orbit distribution evidence",
        ok,
        f"two-start ks {worst_ks:.4f} <= 0.05, null ks {worst_null:.4f} <= 0.02,"
        f" law threshold {ks_max:.5f}, fibers held {on_fiber}, {elapsed:.1f}s;"
        " statistical evidence only",
    )


def test_acceptance_9_determinism(tmp_path, capsys):
    t0 = time.perf_counter()

    pairs = []
    for tag, argv in (
        ("sample", ["sample", "--count", "40", "--seed", "12"]),
        (
            "fiber sample",
            ["sample", "--count", "20", "--seed", "12", "--angles", "0.21,0.34"],
        ),
        (
            "orbit",
            [
                "orbit",
                "--n",
                "8",
                "--word-length",
                "60",
                "--seed",
                "12",
                "--trace",
                "0.4,0.2",
            ],
        ),
    ):
        out1 = tmp_path / f"{tag.replace(' ', '_')}_1.csv"
        out2 = tmp_path / f"{tag.replace(' ', '_')}_2.csv"
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        pairs.append((tag, out1.read_bytes() == out2.read_bytes()))

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "kind = submersion_census\nseed = 12\nN = 32\nc_spec = angles=0.21,0.34\n",
        encoding="utf-8",
    )
    capsys.readouterr()  # drop the CSV run manifests
    assert main(["experiment", str(cfg)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["experiment", str(cfg)]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("manifest")
    second.pop("manifest")
    pairs.append(("experiment", first == second))

    elapsed = time.perf_counter() - t0
    ok = all(match for _, match in pairs)
    detail = ", ".join(f"{tag} {'ok' if match else 'DIFFERS'}" for tag, match in pairs)
    report(9, "determinism", ok, f"{detail}, {elapsed:.1f}s")
