"""Twist flows: gradients, centralizing factors, fiber preservation."""

import numpy as np
import pytest

from su3lab.errors import TrivialFlowError
from su3lab.fiber import RepPoint, base_point, commutator, fiber_residual
from su3lab.flows import (
    BOUNDARY,
    CURVES,
    TWIST_TIME_BOUND,
    FlowStep,
    Observable,
    curve_holonomy,
    flow_walk_stack,
    one_param,
    random_flow_walk,
    twist_flow,
    variation,
)
from su3lab.su3 import (
    algebra_defect,
    dagger,
    exp_algebra,
    haar_random,
    inner_product,
    random_algebra,
    unitarity_defect,
)


def haar_point(rng):
    return RepPoint.from_pair(haar_random(rng), haar_random(rng))


def test_variation_lies_in_algebra(rng):
    x = haar_random(rng, size=30)
    for part in ("re", "im"):
        f = variation(x, part)
        assert max(algebra_defect(f[i]) for i in range(30)) < 1e-14


def test_variation_commutes_with_argument(rng):
    x = haar_random(rng)
    for part in ("re", "im"):
        f = variation(x, part)
        assert np.abs(f @ x - x @ f).max() < 1e-14


def test_variation_is_trace_gradient(rng):
    # <F(x), Y> equals the derivative of the trace part along exp(tY) x.
    x = haar_random(rng)
    h = 1e-5
    for part in ("re", "im"):
        f = variation(x, part)
        for _ in range(5):
            y = random_algebra(rng)
            plus = np.trace(exp_algebra(h * y) @ x)
            minus = np.trace(exp_algebra(-h * y) @ x)
            fd = (plus - minus) / (2 * h)
            fd = fd.real if part == "re" else fd.imag
            assert abs(fd - inner_product(f, y)) < 1e-8


def test_variation_equivariance(rng):
    g, x = haar_random(rng), haar_random(rng)
    lhs = variation(g @ x @ dagger(g))
    rhs = g @ variation(x) @ dagger(g)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_one_param_is_unitary_group_in_t(rng):
    x = haar_random(rng)
    z1 = one_param(x, 0.9)
    z2 = one_param(x, -0.4)
    z3 = one_param(x, 0.5)
    assert unitarity_defect(z1) < 1e-12
    assert np.abs(z1 @ z2 - z3).max() < 1e-12
    assert np.abs(z1 @ x - x @ z1).max() < 1e-12


def test_curve_holonomy_matches_letters(rng):
    a, b = haar_random(rng), haar_random(rng)
    assert curve_holonomy(a, b, "alpha") is a
    assert np.abs(curve_holonomy(a, b, "alpha_beta") - a @ b).max() == 0.0
    assert np.abs(curve_holonomy(a, b, "alpha_beta_inv") - a @ dagger(b)).max() == 0.0
    assert np.abs(
        curve_holonomy(a, b, BOUNDARY) - a @ b @ dagger(b @ a)
    ).max() == 0.0


def test_twist_flow_preserves_fiber_and_observable(rng):
    p = haar_point(rng)
    for curve in CURVES:
        for part in ("re", "im"):
            q = twist_flow(p, FlowStep(Observable(curve, part), 1.3))
            assert q.residual() < 1e-11
            h0 = np.trace(curve_holonomy(p.a, p.b, curve))
            h1 = np.trace(curve_holonomy(q.a, q.b, curve))
            obs0 = h0.real if part == "re" else h0.imag
            obs1 = h1.real if part == "re" else h1.imag
            assert abs(obs1 - obs0) < 1e-11


def test_twist_flow_is_additive_in_time(rng):
    p = haar_point(rng)
    step = lambda t: FlowStep(Observable("alpha_beta"), t)
    q = twist_flow(twist_flow(p, step(0.8)), step(0.4))
    r = twist_flow(p, step(1.2))
    assert np.abs(q.a - r.a).max() < 1e-11
    assert np.abs(q.b - r.b).max() < 1e-11


def test_boundary_flow_rejected(rng):
    p = haar_point(rng)
    with pytest.raises(TrivialFlowError):
        twist_flow(p, FlowStep(Observable(BOUNDARY), 1.0))


def test_flow_commutes_with_conjugation(rng):
    # Flowing then conjugating equals conjugating then flowing.
    p = haar_point(rng)
    g = haar_random(rng)
    step = FlowStep(Observable("alpha_beta_inv", "im"), 0.7)
    q = twist_flow(p, step)
    conj = RepPoint(
        a=g @ p.a @ dagger(g), b=g @ p.b @ dagger(g), c=g @ p.c @ dagger(g)
    )
    qc = twist_flow(conj, step)
    assert np.abs(qc.a - g @ q.a @ dagger(g)).max() < 1e-11
    assert np.abs(qc.b - g @ q.b @ dagger(g)).max() < 1e-11


def test_random_flow_walk_stays_on_fiber(rng):
    c = commutator(haar_random(rng), haar_random(rng))
    p = base_point(c)
    q = random_flow_walk(p, 200, rng)
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
