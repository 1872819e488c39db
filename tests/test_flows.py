"""Twist flows: gradients, centralizing factors, fiber preservation, and
the bridge to the word engine: each letter is a time-(s1, s2) map of its
curve's two flows, on the lone paths and row by row on stacks."""

import itertools

import numpy as np
import pytest

from conftest import make_rng
from oracle_kernels import curve_holonomy, random_algebra
from su3lab.errors import InvalidGroupElementError, TrivialFlowError
from su3lab.fiber import RepPoint, base_point, commutator, fiber_residual
from su3lab.flows import (
    BOUNDARY,
    CURVES,
    TWIST_TIME_BOUND,
    _flow_step,
    flow_walk_stack,
    twist_flow,
    variation,
    walk_from,
)
from su3lab.mcg import LETTERS, TwistWord, apply_word, apply_word_stack
from su3lab.su3 import (
    EXP_SQUARING_C1,
    _plane_major,
    algebra_defect,
    dagger,
    exp_algebra,
    haar_random,
    unitarity_defect,
    unitary_eigensystem,
)


def haar_point(rng):
    return RepPoint.from_pair(haar_random(rng), haar_random(rng))


def part_variation(x, part):
    """The gradient of the named trace part: Im Tr x = Re Tr(-i x)."""
    return variation(x if part == "re" else -1j * x)


def test_variation_lies_in_algebra(rng):
    x = haar_random(rng, size=30)
    for part in ("re", "im"):
        f = part_variation(x, part)
        assert max(algebra_defect(f[i]) for i in range(30)) < 1e-14


def test_variation_commutes_with_argument(rng):
    x = haar_random(rng)
    for part in ("re", "im"):
        f = part_variation(x, part)
        assert np.abs(f @ x - x @ f).max() < 1e-14


def test_variation_is_trace_gradient(rng):
    # <F(x), Y> equals the derivative of the trace part along exp(tY) x.
    x = haar_random(rng)
    h = 1e-5
    for part in ("re", "im"):
        f = part_variation(x, part)
        for _ in range(5):
            y = random_algebra(rng)
            plus = np.trace(exp_algebra(h * y) @ x)
            minus = np.trace(exp_algebra(-h * y) @ x)
            fd = (plus - minus) / (2 * h)
            fd = fd.real if part == "re" else fd.imag
            assert abs(fd - np.trace(f @ y).real) < 1e-8


def test_variation_equivariance(rng):
    g, x = haar_random(rng), haar_random(rng)
    lhs = variation(g @ x @ dagger(g))
    rhs = g @ variation(x) @ dagger(g)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_exp_of_variation_is_unitary_group_in_t(rng):
    x = haar_random(rng)
    z1, z2, z3 = (exp_algebra(t * variation(x)) for t in (0.9, -0.4, 0.5))
    assert unitarity_defect(z1) < 1e-12
    assert np.abs(z1 @ z2 - z3).max() < 1e-12
    assert np.abs(z1 @ x - x @ z1).max() < 1e-12


def test_twist_flow_preserves_fiber_and_observable(rng):
    p = haar_point(rng)
    for curve in CURVES:
        for part in ("re", "im"):
            q = twist_flow(p, curve, part, 1.3)
            assert q.residual() < 1e-11
            h0 = np.trace(curve_holonomy(p.a, p.b, curve))
            h1 = np.trace(curve_holonomy(q.a, q.b, curve))
            obs0 = h0.real if part == "re" else h0.imag
            obs1 = h1.real if part == "re" else h1.imag
            assert abs(obs1 - obs0) < 1e-11


def test_twist_flow_is_additive_in_time(rng):
    p = haar_point(rng)
    q = twist_flow(twist_flow(p, "alpha_beta", "re", 0.8), "alpha_beta", "re", 0.4)
    r = twist_flow(p, "alpha_beta", "re", 1.2)
    assert np.abs(q.a - r.a).max() < 1e-11
    assert np.abs(q.b - r.b).max() < 1e-11


def test_boundary_flow_rejected(rng):
    p = haar_point(rng)
    with pytest.raises(TrivialFlowError):
        twist_flow(p, BOUNDARY, "re", 1.0)
    # Bad names and times fail before the boundary check.
    bad = [("gamma", "re", 1.0), (BOUNDARY, "abs", 1.0), (BOUNDARY, "re", np.nan)]
    for args in bad:
        with pytest.raises(ValueError):
            twist_flow(p, *args)


def test_flow_commutes_with_conjugation(rng):
    # Flowing then conjugating equals conjugating then flowing.
    p = haar_point(rng)
    g = haar_random(rng)
    step = ("alpha_beta_inv", "im", 0.7)
    q = twist_flow(p, *step)
    conj = RepPoint(
        a=g @ p.a @ dagger(g), b=g @ p.b @ dagger(g), c=g @ p.c @ dagger(g)
    )
    qc = twist_flow(conj, *step)
    assert np.abs(qc.a - g @ q.a @ dagger(g)).max() < 1e-11
    assert np.abs(qc.b - g @ q.b @ dagger(g)).max() < 1e-11


def test_twist_flow_trusts_its_rep_point(rng, monkeypatch):
    """twist_flow hands the flow step its point's matrices as 1-row stacks
    without the engines' pair check, which the RepPoint's construction
    made already, and returns the step's bits on all eight curve/part
    pairs; a point may hold a real identity, which the step reads as
    complex."""

    def refuse(a, b):
        raise AssertionError("twist_flow checked its RepPoint's pair again")

    monkeypatch.setattr("su3lab.flows._pair_stacks", refuse)
    identity = np.eye(3)
    points = [haar_point(rng), RepPoint(a=identity, b=haar_random(rng), c=identity)]
    for p in points:
        for (k, curve), part in itertools.product(enumerate(CURVES), ("re", "im")):
            q = twist_flow(p, curve, part, 0.7)
            a, b = _flow_step(
                p.a.astype(complex)[None],
                p.b.astype(complex)[None],
                np.array([k]),
                np.array([part == "im"]),
                np.array([0.7]),
            )
            assert q.a.tobytes() == a[0].tobytes()
            assert q.b.tobytes() == b[0].tobytes()


def test_one_row_flow_walk_stays_on_fiber(rng):
    c = commutator(haar_random(rng), haar_random(rng))
    p = base_point(c)
    a, b = flow_walk_stack(p.a[None], p.b[None], 200, rng)
    q = RepPoint(a=a[0], b=b[0], c=p.c)
    assert q.residual() < 1e-10
    # and actually moves
    assert np.abs(q.a - p.a).max() > 1e-3


def test_flow_walk_stack_matches_constants(rng):
    assert TWIST_TIME_BOUND == pytest.approx(2 * np.pi)
    a = haar_random(rng, size=32)
    b = haar_random(rng, size=32)
    c = commutator(a, b)
    a2, b2 = flow_walk_stack(a, b, 150, rng)
    assert fiber_residual(a2, b2, c).max() < 1e-10
    assert unitarity_defect(a2) < 1e-12


def test_walk_from_gives_the_bits_of_a_broadcast_walk(rng):
    """walk_from is flow_walk_stack on broadcast copies of one point: the
    same bits and the same generator state after, past a renormalization;
    the point is not written."""
    p = base_point(commutator(haar_random(rng), haar_random(rng)))
    a0, b0 = p.a.copy(), p.b.copy()
    mine, theirs = make_rng(3), make_rng(3)
    a, b = walk_from(p, 5, 70, mine)
    ref_a, ref_b = flow_walk_stack(
        np.broadcast_to(p.a, (5, 3, 3)), np.broadcast_to(p.b, (5, 3, 3)), 70, theirs
    )
    assert a.shape == b.shape == (5, 3, 3)
    assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
    assert mine.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(p.a, a0) and np.array_equal(p.b, b0)
    # Five walks, not one copied five times.
    assert np.abs(a[0] - a[1]).max() > 1e-3


def test_walk_from_zero_count(rng):
    p = base_point(commutator(haar_random(rng), haar_random(rng)))
    a, b = walk_from(p, 0, 8, rng)
    assert a.shape == b.shape == (0, 3, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("element", [0, 1])
def test_short_flow_walk_refuses_non_finite_input(rng, bad, element):
    """A walk shorter than RENORM_CADENCE never renormalizes, so neither
    exp_algebra's algebra check nor renormalize's guard sees every row: the
    walk's entry refuses a NaN or inf entry in a or in b as not on the
    group, before the first step."""
    pair = [haar_random(rng, size=8), haar_random(rng, size=8)]
    pair[element][3, 0, 0] = bad
    with pytest.raises(InvalidGroupElementError):
        flow_walk_stack(*pair, 8, rng)


# Integer shifts of the three eigenvalue angles (in turns); those that make
# the angles sum to 0 give the logarithms of the element in its torus.
_LOG_SHIFTS = np.array(list(itertools.product(range(-2, 2), repeat=3)), dtype=float)

# The letters whose holonomy curve is each flow curve, with the sign of the
# flow times.
BRIDGE_LETTERS = (("a", "alpha", 1), ("A", "alpha", -1), ("b", "beta", 1), ("B", "beta", -1))

# Letter against flows, largest entry difference.  The largest observed
# was 2.6e-14 on the Haar points (times up to 75.6) and 1.0e-14 on the
# near-degenerate ones (times up to 12.8).
BRIDGE_TOL = 1e-13


def bridge_times(u: np.ndarray) -> np.ndarray:
    """Every (s1, s2) with s1 F_re(u) + s2 F_im(u) a logarithm of u, for the
    logarithms whose angles are u's, shifted by integers in -2..1 to sum to
    0; rows sorted by max |s|.

    In u's eigenframe the variations are diagonal: F_re(u) has entries
    i (sin phi_k - mean) and F_im(u) = variation(-i u) has entries
    -i (cos phi_k - mean), for phi = 2 pi angles.  Each (s1, s2) is the
    least-squares solution on the three diagonal entries, which is exact
    when u is regular.
    """
    angles = unitary_eigensystem(u)[0]
    phi = 2 * np.pi * angles
    columns = np.stack([np.sin(phi) - np.sin(phi).mean(), np.cos(phi).mean() - np.cos(phi)], 1)
    logs = angles + _LOG_SHIFTS[np.abs((angles + _LOG_SHIFTS).sum(axis=1)) < 0.5]
    times = np.array([np.linalg.lstsq(columns, 2 * np.pi * x, rcond=None)[0] for x in logs])
    return times[np.argsort(np.abs(times).max(axis=1))]


def near_degenerate(rng: np.random.Generator, gap: float) -> np.ndarray:
    """V diag(exp(2 pi i (x, x + gap, -2x - gap))) V^H with Haar V and x in
    [0.05, 0.28], so that only the first two angles are close."""
    x = rng.uniform(0.05, 0.28)
    v = haar_random(rng)
    return (v * np.exp(2j * np.pi * np.array([x, x + gap, -2 * x - gap]))) @ dagger(v)


def algebra_c1(x: np.ndarray) -> float:
    """c1 = tr(Q^2)/2 for Q = -i x, the quantity exp_algebra branches on."""
    return -np.trace(x @ x).real / 2


# Haar points try two logarithms per element: the smallest times and the
# largest times up to this bound, where the flows' exponentials reach
# exp_algebra's squaring branch.
BRIDGE_MAX_TIME = 80.0


def letter_against_flows(p: RepPoint, letter: str, curve: str, times) -> tuple[float, bool]:
    """The largest entry difference between the letter and the Re-then-Im
    flows over each row (s1, s2) of times, and whether any flow took
    exp_algebra's squaring branch."""
    want = apply_word(TwistWord((letter,)), p)
    held = p.a if curve == "alpha" else p.b
    worst, squaring = 0.0, False
    for s1, s2 in times:
        got = twist_flow(twist_flow(p, curve, "re", s1), curve, "im", s2)
        worst = max(worst, np.abs(got.a - want.a).max(), np.abs(got.b - want.b).max())
        c1 = max(algebra_c1(s1 * variation(held)), algebra_c1(s2 * variation(-1j * held)))
        squaring |= c1 > EXP_SQUARING_C1
    return worst, squaring


@pytest.mark.parametrize("points", ["haar", "near_degenerate"])
def test_letters_are_time_s_maps_of_their_curves_flows(points):
    """Each letter is its curve's Re flow for time s1 followed by its Im flow
    for time s2, where s1 F_re + s2 F_im is a logarithm of the curve's
    holonomy (a for "a", b for "b"); the inverse letters take -(s1, s2).

    On Haar points, see BRIDGE_MAX_TIME.  On points whose a and b have two
    angles 1e-9 to 1e-3 apart, where the least-squares system is
    ill-conditioned, the smallest times are tried, and stay small.
    """
    rng = make_rng(41)
    worst, squaring = 0.0, False
    for _ in range(100):
        if points == "haar":
            p = haar_point(rng)
        else:
            gaps = 10.0 ** rng.uniform(-9, -3, size=2)
            p = RepPoint.from_pair(near_degenerate(rng, gaps[0]), near_degenerate(rng, gaps[1]))
        times = {"alpha": bridge_times(p.a), "beta": bridge_times(p.b)}
        for letter, curve, sign in BRIDGE_LETTERS:
            tried = times[curve]
            if points == "haar":
                last = np.searchsorted(np.abs(tried).max(axis=1), BRIDGE_MAX_TIME) - 1
                tried = tried[[0, last]]
            else:
                tried = tried[:1]
                assert np.abs(tried).max() < 20
            diff, squared = letter_against_flows(p, letter, curve, sign * tried)
            worst, squaring = max(worst, diff), squaring or squared
    assert worst <= BRIDGE_TOL
    assert squaring or points != "haar"


@pytest.mark.parametrize("points", ["haar", "near_degenerate"])
def test_word_engine_letters_are_stacked_flow_steps(points):
    """The bridge on stacks: a one-letter apply_word_stack call equals two
    stacked _flow_step calls, each row's curve's Re flow for its time s1
    and then its Im flow for s2, row by row within BRIDGE_TOL, for all four
    letters.  The times are bridge_times' smallest, and on Haar stacks
    also its largest up to BRIDGE_MAX_TIME, so that some rows take
    exp_algebra's squaring branch.  The bits need not agree: the planar
    kernels do not yet give a row the bits of its lone path.

    The largest differences observed were 2.5e-14 on the Haar stacks
    (|s| up to 69.7; 400 of the 800 row times take the squaring branch)
    and 1.0e-14 on the near-degenerate ones (|s| up to 12.6).
    """
    rng = make_rng(43)
    n = 100
    if points == "haar":
        a, b = haar_random(rng, size=n), haar_random(rng, size=n)
    else:
        gaps = 10.0 ** rng.uniform(-9, -3, size=(2, n))
        a, b = (np.stack([near_degenerate(rng, g) for g in row]) for row in gaps)
    a, b = _plane_major(a), _plane_major(b)
    times = {"alpha": [bridge_times(u) for u in a], "beta": [bridge_times(u) for u in b]}
    worst = 0.0
    for letter, curve, sign in BRIDGE_LETTERS:
        want = apply_word_stack(np.full((n, 1), LETTERS.index(letter)), a, b)
        tried = [np.array([t[0] for t in times[curve]])]
        if points == "haar":
            below = [t[np.abs(t).max(axis=1) < BRIDGE_MAX_TIME] for t in times[curve]]
            tried.append(np.array([t[-1] for t in below]))
        rows = np.full(n, CURVES.index(curve))
        for s in tried:
            s = sign * s
            got = _flow_step(a, b, rows, np.zeros(n, dtype=bool), s[:, 0])
            got = _flow_step(*got, rows, np.ones(n, dtype=bool), s[:, 1])
            for x, y in zip(got, want):
                worst = max(worst, np.abs(x - y).max())
    assert worst <= BRIDGE_TOL
