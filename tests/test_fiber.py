"""Commutator fibers: the map, its distinguished points, its differential."""

import numpy as np
import pytest

from su3lab.errors import CentralFiberError, FiberMismatchError
from su3lab.fiber import (
    A0,
    B0,
    RepPoint,
    abelian_point,
    base_point,
    central_fiber_point,
    centralizer_intersection,
    commutator,
    d_kappa_matrix,
    d_kappa_rank,
    fiber_residual,
    is_central,
)
from su3lab.su3 import (
    IDENTITY,
    OMEGA,
    algebra_from_coords,
    dagger,
    eigenvalue_angles,
    haar_random,
    is_regular,
    random_algebra,
    unitarity_defect,
)


def haar_commutator(rng):
    return commutator(haar_random(rng), haar_random(rng))


def test_commutator_identity_cases(rng):
    u = haar_random(rng)
    assert np.abs(commutator(u, u) - IDENTITY).max() < 1e-13
    assert np.abs(commutator(u, IDENTITY) - IDENTITY).max() < 1e-13


def test_commutator_is_special_unitary(rng):
    c = haar_commutator(rng)
    assert unitarity_defect(c) < 1e-12


def test_rep_point_validates(rng):
    a, b = haar_random(rng), haar_random(rng)
    p = RepPoint.from_pair(a, b)
    assert p.residual() < 1e-12
    with pytest.raises(FiberMismatchError):
        RepPoint(a=a, b=b, c=IDENTITY)


def test_central_fiber_point_oracle():
    # a0 is the clock matrix, b0 the cyclic shift; their commutator is the
    # center element omega Id exactly, up to roundoff.
    p = central_fiber_point(1)
    assert np.abs(p.a - np.diag([1, OMEGA, OMEGA**2])).max() < 1e-15
    assert np.abs(p.c - OMEGA * IDENTITY).max() < 1e-15
    assert np.abs(p.a @ p.b @ dagger(p.b @ p.a) - OMEGA * IDENTITY).max() < 1e-14
    q = central_fiber_point(2)
    assert np.abs(q.c - OMEGA**2 * IDENTITY).max() < 1e-14
    with pytest.raises(CentralFiberError):
        central_fiber_point(0)
    with pytest.raises(CentralFiberError):
        central_fiber_point(3)


def test_braiding_of_central_pair():
    assert np.abs(A0 @ B0 - OMEGA * (B0 @ A0)).max() < 1e-15


def test_abelian_point():
    p = abelian_point((0.1, 0.25), (0.4, -0.3))
    assert np.abs(p.c - IDENTITY).max() == 0.0
    assert np.abs(p.a @ p.b - p.b @ p.a).max() < 1e-15
    assert np.abs(
        np.sort(eigenvalue_angles(p.a)) - np.sort(np.mod([0.1, 0.25, -0.35], 1.0))
    ).max() < 1e-12


def test_is_central():
    assert is_central(IDENTITY)
    assert is_central(OMEGA * IDENTITY)
    assert is_central(OMEGA**2 * np.eye(3))
    assert not is_central(np.diag([1, 1, 1]) * 1j)  # det = -i, not in the group's center
    assert not is_central(np.diag([1.0, OMEGA, OMEGA**2]))


def test_base_point_lands_on_fiber(rng):
    for _ in range(25):
        c = haar_commutator(rng)
        p = base_point(c)
        assert p.residual() < 1e-12
        # first element is conjugate to the cyclic shift: trace 0
        assert abs(np.trace(p.a)) < 1e-12


def test_base_point_on_near_boundary_fiber():
    # Repeated eigenvalues in c still produce a valid pair.
    c = np.diag([np.exp(0.4j), np.exp(0.4j), np.exp(-0.8j)])
    p = base_point(c)
    assert p.residual() < 1e-12


def test_fiber_residual_batched(rng):
    a = haar_random(rng, size=10)
    b = haar_random(rng, size=10)
    c = commutator(a, b)
    res = fiber_residual(a, b, c)
    assert res.shape == (10,)
    assert res.max() < 1e-12


def test_centralizer_dimensions(rng):
    g = haar_random(rng)
    assert centralizer_intersection(g, g) == 2
    assert centralizer_intersection(IDENTITY, IDENTITY) == 8
    u = np.exp(0.7j)
    g = np.diag([u, u, u**-2])
    assert centralizer_intersection(g, g) == 4


def test_centralizer_intersection_cases(rng):
    a = haar_random(rng)
    assert centralizer_intersection(a, a) == 2
    assert centralizer_intersection(a, IDENTITY) == 2
    assert centralizer_intersection(IDENTITY, IDENTITY) == 8
    b = haar_random(rng)
    assert centralizer_intersection(a, b) == 0


def test_d_kappa_rank_cases(rng):
    assert d_kappa_rank(d_kappa_matrix(IDENTITY, IDENTITY)) == 0
    c = haar_commutator(rng)
    p = base_point(c)
    assert is_regular(p.b)
    assert d_kappa_rank(d_kappa_matrix(p.a, p.b)) == 8
    # Commuting pairs keep at least a torus in both centralizers.
    q = abelian_point((0.1, 0.23), (0.05, 0.41))
    assert d_kappa_rank(d_kappa_matrix(q.a, q.b)) <= 6


def test_d_kappa_matches_finite_difference(rng):
    # Columns of the differential against central differences of the raw
    # commutator product along perturbations a exp(tX), b exp(tY); the
    # matrix represents the left-translated derivative kappa^-1 kappa-dot.
    from su3lab.su3 import algebra_coords, exp_algebra

    def raw_comm(u, v):
        return u @ v @ dagger(v @ u)

    a, b = haar_random(rng), haar_random(rng)
    m = d_kappa_matrix(a, b)
    base = raw_comm(a, b)
    h = 1e-6
    coords = np.zeros(16)
    for k in (0, 5, 9, 14):
        coords[:] = 0.0
        coords[k] = 1.0
        x = algebra_from_coords(coords[:8])
        y = algebra_from_coords(coords[8:])
        kp = raw_comm(a @ exp_algebra(h * x), b @ exp_algebra(h * y))
        km = raw_comm(a @ exp_algebra(-h * x), b @ exp_algebra(-h * y))
        diff = algebra_coords(dagger(base) @ (kp - km) / (2 * h))
        assert np.abs(diff - m[:, k]).max() < 1e-5


def test_d_kappa_rank_iff_trivial_intersection(rng):
    a = haar_random(rng, size=64)
    b = haar_random(rng, size=64)
    ranks = d_kappa_rank(d_kappa_matrix(a, b))
    inters = centralizer_intersection(a, b)
    assert np.all((ranks == 8) == (inters == 0))
    # plus a degenerate pair to exercise the other branch
    assert centralizer_intersection(a[0], a[0]) > 0
    assert d_kappa_rank(d_kappa_matrix(a[0], a[0])) < 8
