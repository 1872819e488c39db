"""Twist flows: gradients, centralizing factors, fiber preservation."""

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
    flow_walk_stack,
    twist_flow,
    variation,
    walk_from,
)
from su3lab.su3 import (
    algebra_defect,
    dagger,
    exp_algebra,
    haar_random,
    unitarity_defect,
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
