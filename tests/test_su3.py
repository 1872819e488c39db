"""Group and algebra layer: exactness oracles and statistical moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3lab.errors import (
    DriftExplosionError,
    InvalidAlgebraError,
    InvalidGroupElementError,
    NonRegularElementError,
)
from su3lab.su3 import (
    ALGEBRA_BASIS,
    IDENTITY,
    OMEGA,
    adjoint_matrix,
    algebra_coords,
    algebra_defect,
    algebra_from_coords,
    circle_distance,
    dagger,
    eigenvalue_angles,
    exp_algebra,
    haar_random,
    inner_product,
    is_regular,
    is_special_unitary,
    random_algebra,
    regularity_gap,
    renormalize,
    torus_frame,
    unitarity_defect,
    unitary_eigensystem,
)


def test_identity_and_omega():
    assert unitarity_defect(IDENTITY) == 0.0
    assert abs(OMEGA**3 - 1) < 1e-15
    assert abs(OMEGA - np.exp(2j * np.pi / 3)) < 1e-15


def test_haar_random_is_special_unitary(rng):
    u = haar_random(rng, size=200)
    assert u.shape == (200, 3, 3)
    prods = u @ dagger(u)
    assert np.abs(prods - IDENTITY).max() < 1e-12
    assert np.abs(np.linalg.det(u) - 1).max() < 1e-12


def test_haar_moments(rng):
    # Weingarten first moments on the unitary group: E[tr] = 0 (center
    # invariance), E[|tr|^2] = 1, E[|u_ij|^2] = 1/9 * 3 = 1/3 per entry.
    u = haar_random(rng, size=40_000)
    tr = np.trace(u, axis1=-2, axis2=-1)
    assert abs(tr.mean()) < 0.05
    assert abs(np.mean(np.abs(tr) ** 2) - 1.0) < 0.08
    assert np.abs(np.mean(np.abs(u) ** 2, axis=0) - 1.0 / 3.0).max() < 0.02


def test_haar_left_invariance_of_eigenvalue_angles(rng):
    # The eigenvalue-angle distribution is conjugation and translation
    # invariant; compare a fixed-translate ensemble against the raw one on
    # the mean of the smallest angle gap.
    u = haar_random(rng, size=4000)
    v = haar_random(rng)
    gaps_raw = regularity_gap(u)
    gaps_shift = regularity_gap(v @ u)
    assert abs(gaps_raw.mean() - gaps_shift.mean()) < 0.01


def test_exp_algebra_diagonal_gives_central_element():
    x = np.diag([2j * np.pi / 3, 2j * np.pi / 3, -4j * np.pi / 3])
    assert np.abs(exp_algebra(x) - OMEGA * IDENTITY).max() < 1e-14


def test_exp_algebra_rejects_non_algebra():
    with pytest.raises(InvalidAlgebraError):
        exp_algebra(np.diag([1.0, 2.0, -3.0]).astype(complex))  # Hermitian


def test_exp_algebra_matches_scipy(rng):
    from scipy.linalg import expm

    for _ in range(20):
        x = random_algebra(rng)
        assert np.abs(exp_algebra(x) - expm(x)).max() < 1e-12


def test_inner_product_oracle():
    x = np.diag([1j, -1j, 0.0])
    assert inner_product(x, x) == pytest.approx(-2.0, abs=1e-15)


def test_inner_product_negative_definite(rng):
    for _ in range(50):
        x = random_algebra(rng)
        assert inner_product(x, x) < 0


def test_algebra_basis_orthonormal():
    grams = np.einsum("iab,jba->ij", ALGEBRA_BASIS, ALGEBRA_BASIS)
    assert np.abs(-np.real(grams) - np.eye(8)).max() < 1e-14
    assert np.abs(np.imag(grams)).max() < 1e-14
    assert all(algebra_defect(e) < 1e-15 for e in ALGEBRA_BASIS)


def test_coords_round_trip(rng):
    x = random_algebra(rng, size=100)
    v = algebra_coords(x)
    assert v.shape == (100, 8)
    assert np.abs(algebra_from_coords(v) - x).max() < 1e-13
    # The pairing in coordinates is the negated dot product.
    y = random_algebra(rng, size=100)
    w = algebra_coords(y)
    ips = np.array([inner_product(x[i], y[i]) for i in range(100)])
    assert np.abs(ips + np.sum(v * w, axis=-1)).max() < 1e-12


def test_adjoint_matrix_is_orthogonal_and_represents(rng):
    g = haar_random(rng, size=50)
    m = adjoint_matrix(g)
    assert np.abs(m @ np.swapaxes(m, -1, -2) - np.eye(8)).max() < 1e-12
    x = random_algebra(rng, size=50)
    lhs = algebra_coords(g @ x @ dagger(g))
    rhs = np.einsum("nij,nj->ni", m, algebra_coords(x))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_adjoint_matrix_is_homomorphism(rng):
    g, h = haar_random(rng), haar_random(rng)
    assert np.abs(adjoint_matrix(g @ h) - adjoint_matrix(g) @ adjoint_matrix(h)).max() < 1e-12


def test_eigenvalue_angles_of_shift():
    shift = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    angles = eigenvalue_angles(shift)
    assert np.abs(angles - np.array([0.0, 1 / 3, 2 / 3])).max() < 1e-12


def test_unitary_eigensystem_reconstructs(rng):
    u = haar_random(rng)
    angles, vectors = unitary_eigensystem(u)
    lam = np.exp(2j * np.pi * angles)
    assert np.abs((vectors * lam) @ dagger(vectors) - u).max() < 1e-12
    assert np.all(np.diff(angles) >= 0)


def test_torus_frame_and_element(rng):
    u = haar_random(rng)
    frame = torus_frame(u)
    v = frame.eigenvectors
    lam = np.exp(2j * np.pi * frame.angles)
    assert np.abs((v * lam) @ dagger(v) - u).max() < 1e-12
    # An element diagonal in the frame lies on u's maximal torus.
    t = (v * np.exp(2j * np.pi * np.array([0.3, -0.8, 0.5]))) @ dagger(v)
    assert is_special_unitary(t)
    assert np.abs(t @ u - u @ t).max() < 1e-12


def test_torus_frame_rejects_non_regular():
    with pytest.raises(NonRegularElementError):
        torus_frame(IDENTITY)


def test_is_regular(rng):
    assert not is_regular(IDENTITY)
    assert bool(np.all(is_regular(haar_random(rng, size=20))))


def test_renormalize_restores_and_guards(rng):
    u = haar_random(rng)
    drifted = u * (1 + 3e-4) + 1e-5
    fixed = renormalize(drifted)
    assert unitarity_defect(fixed) < 1e-12
    assert np.abs(fixed - u).max() < 1e-3
    with pytest.raises(DriftExplosionError):
        renormalize(2.0 * u)


def test_renormalize_empty_stack():
    out = renormalize(np.empty((0, 3, 3), dtype=complex))
    assert out.shape == (0, 3, 3)


def test_exp_algebra_empty_stack():
    for shape in ((0, 3, 3), (2, 0, 3, 3)):
        x = np.empty(shape, dtype=complex)
        assert algebra_defect(x) == 0.0
        assert exp_algebra(x).shape == shape
        assert unitarity_defect(exp_algebra(x)) == 0.0


def test_assert_special_unitary_message():
    with pytest.raises(InvalidGroupElementError):
        from su3lab.su3 import assert_special_unitary

        assert_special_unitary(np.diag([1.0, 1.0, 2.0]).astype(complex))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)
def test_circle_distance_properties(x, y):
    d = float(circle_distance(x, y))
    assert 0.0 <= d <= 0.5
    assert d == pytest.approx(float(circle_distance(y, x)), abs=1e-12)
    assert float(circle_distance(x + 1.0, y)) == pytest.approx(d, abs=1e-9)


def test_exp_of_torus_log_matches_angles(rng):
    # exp of a diagonal algebra element lands at the prescribed angles.
    t1, t2 = 0.15, 0.47
    x = 2j * np.pi * np.diag([t1, t2, -t1 - t2])
    u = exp_algebra(x)
    assert np.abs(eigenvalue_angles(u) - np.sort([t1, t2, 1 - t1 - t2])).max() < 1e-12
