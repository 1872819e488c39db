"""Group and algebra layer: exactness oracles and statistical moments."""

import warnings

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
from oracle_kernels import algebra_coords, random_algebra
from su3lab.fiber import RepPoint, commutator, fiber_residual
from su3lab.su3 import (
    ALGEBRA_BASIS,
    EXP_MAX_C1,
    IDENTITY,
    OMEGA,
    UNITARITY_TOL,
    adjoint_matrix,
    algebra_defect,
    angle_gap,
    assert_algebra_element,
    assert_special_unitary,
    circle_distance,
    dagger,
    eigenvalue_angles,
    exp_algebra,
    haar_random,
    renormalize,
    torus_frame,
    unitarity_defect,
    unitary_eigensystem,
)
from su3lab.traces import character_values


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
    gaps_raw = angle_gap(eigenvalue_angles(u))
    gaps_shift = angle_gap(eigenvalue_angles(v @ u))
    assert abs(gaps_raw.mean() - gaps_shift.mean()) < 0.01


def test_exp_algebra_diagonal_gives_central_element():
    x = np.diag([2j * np.pi / 3, 2j * np.pi / 3, -4j * np.pi / 3])
    assert np.abs(exp_algebra(x) - OMEGA * IDENTITY).max() < 1e-14


def test_exp_algebra_rejects_non_algebra():
    with pytest.raises(InvalidAlgebraError):
        exp_algebra(np.diag([1.0, 2.0, -3.0]).astype(complex))  # Hermitian


# Exactly traceless and anti-Hermitian at every scale: a real scale factor
# keeps x_ji = -conj(x_ij), and the diagonal (i, -i, 0) sums to 0.  c1 = 7.5.
EXACT_ALGEBRA = np.array([[1j, 2 + 1j, 0.5], [-2 + 1j, -1j, 1 - 0.5j], [-0.5, -1 - 0.5j, 0]])


# At 1e200, x^2 overflows to inf and c0 to NaN before the c1 refusal.
@pytest.mark.parametrize("scale", [1e10, 1e50, 1e200])
def test_exp_algebra_refuses_c1_above_its_bound(scale):
    x = scale * EXACT_ALGEBRA
    assert algebra_defect(x) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidAlgebraError, match="c1"):
            exp_algebra(x)


def test_exp_algebra_stays_on_the_group_just_under_its_bound(rng):
    # Gaussian elements and spectra (1 + d, 1 - d, -2) with d down to 1e-12,
    # where the squarings lose the most, scaled to c1 just under the bound.
    d = 10.0 ** rng.uniform(-12, -2, 64)
    q = np.stack([1 + d, 1 - d, np.full(64, -2.0)], axis=1)
    v = haar_random(rng, size=64)
    near = (v * (1j * q)[:, None, :]) @ dagger(v)
    x = np.concatenate([random_algebra(rng, 64), (near - dagger(near)) / 2])
    c1 = -np.einsum("nij,nji->n", x, x).real / 2
    x *= np.sqrt(EXP_MAX_C1 * (1 - 1e-9) / c1)[:, None, None]
    assert unitarity_defect(exp_algebra(x)) <= UNITARITY_TOL


def test_exp_algebra_matches_scipy(rng):
    from scipy.linalg import expm

    for _ in range(20):
        x = random_algebra(rng)
        assert np.abs(exp_algebra(x) - expm(x)).max() < 1e-12


def test_algebra_basis_orthonormal():
    grams = np.einsum("iab,jba->ij", ALGEBRA_BASIS, ALGEBRA_BASIS)
    assert np.abs(-np.real(grams) - np.eye(8)).max() < 1e-14
    assert np.abs(np.imag(grams)).max() < 1e-14
    assert all(algebra_defect(e) < 1e-15 for e in ALGEBRA_BASIS)


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
    angles, v = torus_frame(u)
    lam = np.exp(2j * np.pi * angles)
    assert np.abs((v * lam) @ dagger(v) - u).max() < 1e-12
    # An element diagonal in the frame lies on u's maximal torus.
    t = (v * np.exp(2j * np.pi * np.array([0.3, -0.8, 0.5]))) @ dagger(v)
    assert unitarity_defect(t) <= UNITARITY_TOL
    assert np.abs(t @ u - u @ t).max() < 1e-12


def test_torus_frame_rejects_non_regular():
    with pytest.raises(NonRegularElementError):
        torus_frame(IDENTITY)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_renormalize_refuses_non_finite_input(rng, bad):
    """A NaN or inf entry, in a lone matrix, in one row of a stack, or in a
    pair wrapped as a RepPoint (whose commutator is renormalized), raises
    the typed drift error rather than a LinAlgError.  A stack raises it
    without a RuntimeWarning first; on a lone matrix numpy's warning about
    inf * 0 in the Gram product is left as it is."""
    u = haar_random(rng, size=4)
    u[2, 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DriftExplosionError):
            renormalize(u)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DriftExplosionError):
            renormalize(u[2])
        with pytest.raises(DriftExplosionError):
            RepPoint.from_pair(np.full((3, 3), bad), IDENTITY)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checks_refuse_non_finite_input(rng, bad):
    """A NaN or inf entry gives a NaN or inf defect, and each check refuses
    both: a lone matrix and a stack of algebra elements, a RepPoint, and
    exp_algebra on a stack and on a lone matrix."""
    u = haar_random(rng)
    u[1, 0] = bad
    x = random_algebra(rng, 4)
    x[2, 0, 1] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(InvalidGroupElementError):
            assert_special_unitary(u)
        with pytest.raises(InvalidGroupElementError):
            RepPoint(a=u, b=IDENTITY, c=IDENTITY)
    for args in (x, x[2]):
        with pytest.raises(InvalidAlgebraError):
            assert_algebra_element(args)
        with pytest.raises(InvalidAlgebraError):
            exp_algebra(args)


def _fits_when_reshaped(shape, rng, algebra):
    """An array of a malformed shape whose entries, read as 3x3 matrices
    where they fit, are valid inputs: zeros in the algebra; identities, or
    a Haar stack reshaped, in the group."""
    if algebra:
        return np.zeros(shape, dtype=complex)
    if len(shape) == 3:
        return haar_random(rng, size=2).reshape(shape)
    return np.eye(*shape, dtype=complex)


@pytest.mark.parametrize(
    "shape", [(2, 2), (4, 3), (3, 3, 2)], ids=lambda s: "x".join(map(str, s))
)
@pytest.mark.parametrize(
    "kernel, error",
    [
        (exp_algebra, InvalidAlgebraError),
        (assert_algebra_element, InvalidAlgebraError),
        (renormalize, InvalidGroupElementError),
        (assert_special_unitary, InvalidGroupElementError),
        (lambda u: commutator(u, u), InvalidGroupElementError),
        (lambda u: fiber_residual(u, u, u), InvalidGroupElementError),
        (lambda u: character_values(u, u), InvalidGroupElementError),
    ],
    ids=[
        "exp_algebra",
        "assert_algebra_element",
        "renormalize",
        "assert_special_unitary",
        "commutator",
        "fiber_residual",
        "character_values",
    ],
)
def test_kernels_refuse_last_axes_other_than_3x3(kernel, error, shape, rng):
    u = _fits_when_reshaped(shape, rng, error is InvalidAlgebraError)
    with pytest.raises(error, match="3x3"):
        kernel(u)


def test_rep_point_refuses_stacks(rng):
    a, b = haar_random(rng, size=2), haar_random(rng, size=2)
    with pytest.raises(InvalidGroupElementError, match="single 3x3"):
        RepPoint(a=a, b=b, c=commutator(a, b))
    with pytest.raises(InvalidGroupElementError, match="single 3x3"):
        RepPoint.from_pair(a, b)


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
