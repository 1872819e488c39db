"""Closed-form SU(3) kernels against LAPACK references.

exp_algebra is checked against scipy's expm over coordinate scales from
1e-12 to 20, on repeated eigenvalues of both determinant signs, at zero and
on both sides of the Taylor-branch threshold.  renormalize is checked
against SVD polar projection on both sides of its Newton-Schulz threshold,
and its drift guard at the guard value.  The last tests run both orbit
engines on the new kernels and on the reference ones.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import make_rng
from oracle_kernels import exp_algebra_eigh, renormalize_svd
from su3lab import flows, mcg
from su3lab.errors import DriftExplosionError
from su3lab.fiber import RepPoint
from su3lab.su3 import (
    EXP_TAYLOR_C1,
    IDENTITY,
    NEWTON_SCHULZ_DEFECT,
    RENORM_GUARD,
    algebra_from_coords,
    dagger,
    exp_algebra,
    _det3,
    haar_random,
    renormalize,
)

EXP_TOL = 1e-13
POLAR_TOL = 1e-14

SEEDS = st.integers(0, 2**32 - 1)


def assert_exp_exact(x: np.ndarray) -> None:
    """exp_algebra(x) matches expm, is special unitary, commutes with x."""
    u = exp_algebra(x)
    ref = np.stack([expm(m) for m in x.reshape(-1, 3, 3)]).reshape(x.shape)
    assert np.abs(u - ref).max() <= EXP_TOL
    assert np.abs(u @ dagger(u) - IDENTITY).max() <= EXP_TOL
    assert np.abs(np.linalg.det(u) - 1).max() <= EXP_TOL
    assert np.abs(u @ x - x @ u).max() <= EXP_TOL * max(1.0, np.abs(x).max())


def with_spectrum(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """Algebra elements i V diag(q) V^H with Haar V, one per row of q."""
    v = haar_random(rng, size=len(q))
    x = (v * (1j * q)[:, None, :]) @ dagger(v)
    return (x - dagger(x)) / 2


def coords_with_c1(rng: np.random.Generator, c1: float, size: int) -> np.ndarray:
    # -tr(x^2) is the squared coordinate norm, so c1 = |coords|^2 / 2.
    v = rng.standard_normal((size, 8))
    return v * (np.sqrt(2 * c1) / np.linalg.norm(v, axis=1))[:, None]


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.floats(-12.0, np.log10(20.0)))
def test_exp_matches_expm_across_scales(seed, log_scale):
    rng = make_rng(seed)
    x = algebra_from_coords(10.0**log_scale * rng.standard_normal((16, 8)))
    assert_exp_exact(x)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.floats(-8.0, np.log10(7.0)), st.sampled_from([1.0, -1.0]))
def test_exp_repeated_eigenvalues(seed, log_lam, sign):
    # Spectrum (l, l, -2l): w = 0 exactly, det Q = 2 sign l^3 at its
    # extreme for the given c1, with either sign.
    rng = make_rng(seed)
    lam = sign * 10.0**log_lam
    q = np.tile([lam, lam, -2 * lam], (8, 1))
    assert_exp_exact(with_spectrum(rng, q))


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.floats(-0.5, 0.5))
def test_exp_across_taylor_threshold(seed, log_offset):
    # c1 within a factor of about 3 of the threshold, on both sides.
    rng = make_rng(seed)
    c1 = EXP_TAYLOR_C1 * 10.0**log_offset
    assert_exp_exact(algebra_from_coords(coords_with_c1(rng, c1, 16)))


def test_exp_just_either_side_of_taylor_threshold():
    rng = make_rng(7)
    for c1 in (EXP_TAYLOR_C1 * (1 - 1e-12), EXP_TAYLOR_C1 * (1 + 1e-12)):
        x = algebra_from_coords(coords_with_c1(rng, c1, 64))
        assert_exp_exact(x)
        assert np.abs(exp_algebra(x) - exp_algebra_eigh(x)).max() <= EXP_TOL


def test_exp_zero_is_identity_without_warnings():
    # Triple-zero spectrum: c0 = c1 = 0, where the divided closed form is
    # 0/0; alone, and stacked with rows that take the closed form.
    rng = make_rng(3)
    mixed = algebra_from_coords(rng.standard_normal((6, 8)))
    mixed[::2] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(exp_algebra(np.zeros((3, 3), complex)), IDENTITY)
        assert np.array_equal(exp_algebra(np.zeros((4, 3, 3), complex)), np.broadcast_to(IDENTITY, (4, 3, 3)))
        out = exp_algebra(mixed)
    assert np.array_equal(out[::2], np.broadcast_to(IDENTITY, (3, 3, 3)))
    assert_exp_exact(mixed)


def test_exp_keeps_batch_shape():
    rng = make_rng(4)
    x = algebra_from_coords(rng.standard_normal((2, 5, 8)))
    assert exp_algebra(x).shape == (2, 5, 3, 3)
    assert_exp_exact(x)


def drifted(rng: np.random.Generator, defect: float, size: int) -> np.ndarray:
    """Haar matrices times Id + e, with |e| entries defect/3 at most, so
    the Gram defect is between about defect/10 and defect (for defect < 1)."""
    e = rng.standard_normal((size, 3, 3)) + 1j * rng.standard_normal((size, 3, 3))
    e *= defect / (3 * np.abs(e).max(axis=(1, 2), keepdims=True))
    return haar_random(rng, size=size) @ (IDENTITY + e)


def gram_defect(u: np.ndarray) -> float:
    return float(np.abs(dagger(u) @ u - IDENTITY).max())


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.floats(-16.0, np.log10(NEWTON_SCHULZ_DEFECT)))
def test_renormalize_matches_svd_polar_below_threshold(seed, log_defect):
    rng = make_rng(seed)
    u = drifted(rng, 10.0**log_defect, 32)
    assert gram_defect(u) <= NEWTON_SCHULZ_DEFECT
    out = renormalize(u)
    assert np.abs(out - renormalize_svd(u)).max() <= POLAR_TOL
    assert np.abs(out @ dagger(out) - IDENTITY).max() <= POLAR_TOL
    assert np.abs(np.linalg.det(out) - 1).max() <= POLAR_TOL


def test_renormalize_mixed_stack_takes_svd_path():
    rng = make_rng(5)
    u = drifted(rng, 1e-14, 40)
    u[::5] = drifted(rng, 1e-4, 8)
    assert gram_defect(u) > NEWTON_SCHULZ_DEFECT
    out = renormalize(u)
    assert np.abs(out - renormalize_svd(u)).max() <= POLAR_TOL
    assert np.abs(out @ dagger(out) - IDENTITY).max() <= POLAR_TOL


def with_singular_values(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    return (haar_random(rng) * s) @ haar_random(rng)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_renormalize_guard_at_its_threshold(sign):
    rng = make_rng(6)
    below = with_singular_values(rng, np.array([1 + sign * (RENORM_GUARD - 1e-6), 1.0, 1.0]))
    out = renormalize(below)
    assert np.abs(out @ dagger(out) - IDENTITY).max() <= POLAR_TOL
    above = with_singular_values(rng, np.array([1 + sign * (RENORM_GUARD + 1e-6), 1.0, 1.0]))
    with pytest.raises(DriftExplosionError):
        renormalize(above)
    stack = np.stack([haar_random(rng), above])
    with pytest.raises(DriftExplosionError):
        renormalize(stack)


def test_renormalize_single_matrix_and_empty_stacks():
    rng = make_rng(8)
    for defect in (1e-15, 1e-4):
        u = drifted(rng, defect, 1)[0]
        out = renormalize(u)
        assert out.shape == (3, 3)
        assert np.abs(out - renormalize_svd(u)).max() <= POLAR_TOL
    for shape in ((0, 3, 3), (2, 0, 3, 3)):
        assert renormalize(np.empty(shape, dtype=complex)).shape == shape


def test_det3_matches_lapack_det():
    rng = make_rng(9)
    m = rng.standard_normal((2, 5, 3, 3)) + 1j * rng.standard_normal((2, 5, 3, 3))
    assert np.abs(_det3(m) - np.linalg.det(m)).max() <= 1e-13
    assert np.isscalar(_det3(m[0, 0]))
    assert abs(_det3(m[0, 0]) - np.linalg.det(m[0, 0])) <= 1e-13


# The engines are compared only over short horizons.  The two kernel pairs
# differ by roundoff (about 1e-15), and both engines amplify that: flow
# walks and twist words are chaotic on the fiber.  On these inputs the gap
# is 7e-13 after 8 flow steps and 3e-14 after 16 letters, but 0.2 after 64
# flow steps and O(1) after 200 letters, where the two runs are effectively
# independent samples.  Long runs are checked statistically by the
# acceptance tests instead.
ENGINE_TOL = 1e-12


@pytest.fixture
def haar_pairs():
    rng = make_rng(20261017)
    return haar_random(rng, size=1000), haar_random(rng, size=1000)


def test_flow_engine_matches_reference_kernels(haar_pairs, monkeypatch):
    a, b = haar_pairs
    fast = flows.flow_walk_stack(a, b, 8, make_rng(11))
    monkeypatch.setattr(flows, "exp_algebra", exp_algebra_eigh)
    monkeypatch.setattr(flows, "renormalize", renormalize_svd)
    slow = flows.flow_walk_stack(a, b, 8, make_rng(11))
    assert np.abs(fast[0] - slow[0]).max() <= ENGINE_TOL
    assert np.abs(fast[1] - slow[1]).max() <= ENGINE_TOL


def test_word_engine_matches_reference_kernels(haar_pairs, monkeypatch):
    a, b = haar_pairs
    indices = mcg.random_word_indices(1000, 16, make_rng(12))
    fast = mcg.apply_word_stack(indices, a, b)
    monkeypatch.setattr(mcg, "renormalize", renormalize_svd)
    slow = mcg.apply_word_stack(indices, a, b)
    assert np.abs(fast[0] - slow[0]).max() <= ENGINE_TOL
    assert np.abs(fast[1] - slow[1]).max() <= ENGINE_TOL


def test_engines_leave_their_inputs_unchanged():
    rng = make_rng(13)
    a, b = haar_random(rng, size=16), haar_random(rng, size=16)
    indices = mcg.random_word_indices(16, 16, rng)
    p = RepPoint.from_pair(a[0], b[0])
    # Read-only inputs, as the experiments pass them: any write raises.
    frozen = RepPoint(
        a=np.broadcast_to(p.a, (3, 3)), b=np.broadcast_to(p.b, (3, 3)), c=p.c
    )
    inputs = [a, b, p.a, p.b]
    saved = [m.copy() for m in inputs]
    broadcast = np.broadcast_to(a[0], a.shape), np.broadcast_to(b[0], b.shape)
    for x, y in ((a, b), broadcast):
        flows.flow_walk_stack(x, y, 8, rng)
        mcg.apply_word_stack(indices, x, y)
    for q in (p, frozen):
        for curve in flows.CURVES:
            for part in flows.PARTS:
                flows.twist_flow(q, flows.FlowStep(flows.Observable(curve, part), 0.7))
    for m, m0 in zip(inputs, saved):
        assert np.array_equal(m, m0)
