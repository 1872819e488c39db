"""Commutator fibers: the map, its distinguished points, its differential."""

import numpy as np
import pytest

from conftest import make_rng, torus_phases
from oracle_kernels import adjoint_matrix_gemm, algebra_coords, algebra_from_coords
from su3lab.errors import FiberMismatchError
from su3lab import fiber
from su3lab.experiments import matrix_from_c_spec
from su3lab.fiber import (
    RepPoint,
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
    REGULARITY_GAP,
    adjoint_matrix,
    angle_gap,
    dagger,
    eigenvalue_angles,
    exp_algebra,
    haar_random,
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
    p = central_fiber_point()
    assert np.abs(p.a - np.diag([1, OMEGA, OMEGA**2])).max() < 1e-15
    assert np.abs(p.c - OMEGA * IDENTITY).max() < 1e-15
    assert np.abs(p.a @ p.b @ dagger(p.b @ p.a) - OMEGA * IDENTITY).max() < 1e-14


def test_braiding_of_central_pair():
    p = central_fiber_point()
    assert np.abs(p.a @ p.b - OMEGA * (p.b @ p.a)).max() < 1e-15


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
    assert angle_gap(eigenvalue_angles(p.b)) >= REGULARITY_GAP
    assert d_kappa_rank(d_kappa_matrix(p.a, p.b)) == 8
    # Commuting pairs keep at least a torus in both centralizers.
    q = RepPoint.from_pair(
        matrix_from_c_spec("angles=0.1,0.23"), matrix_from_c_spec("angles=0.05,0.41")
    )
    assert d_kappa_rank(d_kappa_matrix(q.a, q.b)) <= 6


def test_d_kappa_matches_finite_difference(rng):
    # Columns of the differential against central differences of the raw
    # commutator product along perturbations a exp(tX), b exp(tY); the
    # matrix represents the left-translated derivative kappa^-1 kappa-dot.
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


def unitary2(rng, n):
    """n Haar-random 2x2 unitary matrices, from the QR of Gaussian ones."""
    q, r = np.linalg.qr(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def rank_strata(rng, n):
    """(name, a, b, rank of d kappa, dim z(a, b)) for n pairs of five
    strata: Haar pairs, conjugates of pairs in S(U(2) x U(1)) and in
    SU(2), pairs (a, a^2), and commuting pairs of one torus, each stratum
    conjugated by one Haar frame per row."""
    v = haar_random(rng, n)

    def framed(m):
        return v @ m @ dagger(v)

    def blocks(u, corner):
        m = np.zeros((n, 3, 3), dtype=complex)
        m[:, :2, :2] = u
        m[:, 2, 2] = corner
        return framed(m)

    a, b = haar_random(rng, n), haar_random(rng, n)
    yield "haar", a, b, 8, 0
    ua, ub = unitary2(rng, n), unitary2(rng, n)
    yield "reducible", blocks(ua, 1 / np.linalg.det(ua)), blocks(ub, 1 / np.linalg.det(ub)), 7, 1
    sa, sb = (u / np.sqrt(np.linalg.det(u))[:, None, None] for u in (ua, ub))
    yield "su2", blocks(sa, 1), blocks(sb, 1), 7, 1
    yield "square", a, a @ a, 6, 2
    da, db = (framed(np.eye(3) * torus_phases(rng, n)[:, None, :]) for _ in range(2))
    yield "torus", da, db, 6, 2


def test_d_kappa_rank_and_intersection_sum_to_8_pointwise(monkeypatch):
    """rank d kappa + dim z(a, b) = 8 on every row of five strata, 500 rows
    each, because the image of d kappa is the orthogonal complement of
    z(a, b).  All but the Haar rows fall to the SVD, where the adjoint's
    last bits meet RANK_TOL and NULLSPACE_TOL; with the frozen one-GEMM
    adjoint in its place the integer arrays are the same."""
    for name, a, b, rank, dim in rank_strata(make_rng(3636), 500):
        ranks = d_kappa_rank(d_kappa_matrix(a, b))
        inters = centralizer_intersection(a, b)
        assert np.all(ranks + inters == 8), name
        assert np.all(ranks == rank) and np.all(inters == dim), name
        with monkeypatch.context() as m:
            m.setattr(fiber, "adjoint_matrix", adjoint_matrix_gemm)
            assert np.array_equal(d_kappa_rank(d_kappa_matrix(a, b)), ranks), name
            assert np.array_equal(centralizer_intersection(a, b), inters), name


def test_d_kappa_blocks_match_the_transposed_differences(rng):
    """_d_kappa_from_adjoints writes its blocks in place with the bits of
    the transposes of Ad(b) - I and I - Ad(a), on a stack and a lone pair."""
    a, b = haar_random(rng, size=64), haar_random(rng, size=64)
    ad_a, ad_b = adjoint_matrix(a), adjoint_matrix(b)
    eye = np.eye(8)
    blocks = np.concatenate(
        [np.swapaxes(ad_b - eye, -1, -2), np.swapaxes(eye - ad_a, -1, -2)], axis=-1
    )
    assert np.array_equal(fiber._d_kappa_from_adjoints(ad_a, ad_b), ad_b @ ad_a @ blocks)
    lone = fiber._d_kappa_from_adjoints(ad_a[0], ad_b[0])
    assert np.array_equal(lone, ad_b[0] @ ad_a[0] @ blocks[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_residual_check_refuses_non_finite_residual(monkeypatch, bad):
    """With the special-unitary checks switched off, a NaN or inf entry
    still fails RepPoint's own residual check."""
    monkeypatch.setattr(fiber, "assert_special_unitary", lambda u: None)
    a = IDENTITY.copy()
    a[0, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(FiberMismatchError):
        RepPoint(a=a, b=IDENTITY, c=IDENTITY)
