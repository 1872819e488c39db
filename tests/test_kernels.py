"""Closed-form SU(3) kernels against LAPACK references.

exp_algebra is checked against scipy's expm over coordinate scales from
1e-12 to 20, on repeated eigenvalues of both determinant signs, at zero and
on both sides of the Taylor-branch threshold.  renormalize, one
Newton-Schulz step, is checked against SVD polar projection up to just
under its drift guard (to POLAR_TOL plus the step's own error, 2 x^2 for
the largest |s^2 - 1| = x), on lone matrices, on stacks of every shape and on
stacks that mix drifts, where row i has the bits of its 1-row stack
(stacks run on planes: renormalize, exp_algebra and variation return
new plane-major stacks,
and they, the character values and the fiber residual give the same bits
for a C-ordered stack and for its plane-major copy; the planar product
matches matmul on strided operands, and the cofactor determinant on
plane rows matches LAPACK's); the guard is checked on both
sides of RENORM_GUARD and on inputs with a singular value farther than
2 RENORM_GUARD from 1, alone and inside a stack, and the CLI, experiment
and twist-flow paths are checked to reach renormalize at most
UNITARITY_TOL / 100 off the group.  The
single-pair word path (apply_word, and renormalize, _det3 and the fiber
residual on one matrix, all on Python complex entries) is checked bit for
bit against plain nested loops, and against its former matmul and
numpy-scalar form within 1e-13 on words of at most 16 letters.  unitary_eigensystem is checked against the complex Schur frame:
angles bit for bit, the frame up to column phases, bit for bit on
diagonal fiber labels, and on the fiber at repeated eigenvalues of
non-normal input.  The rank-census layers are checked against the
two-einsum adjoint matrix, an SVD of every matrix and the full-grid
relation search: the relation verdicts on Haar angles and on planted
relations at every height, the adjoint matrix to roundoff, and the
ranks, intersections and genericity flags they feed.  The full-rank
check is checked on planted spectra on both sides of its floor and of
both rank thresholds, on near-commuting pairs, to send only the rows it
cannot settle to the SVD, and to send non-finite rows there.  The last
tests run both orbit engines against their reference forms: the planar
flow step against the masked matmul step with the spectral exponential
on every curve and trace part, the planar flow walk against the matmul walk with SVD renormalization on 0, 1 and
1000 rows, and the planar word-stack engine against the four-mask matmul
one.  They also check that a word stack applied in pieces cut at
multiples of the renormalization cadence gives the bits of one call, that
its row blocks give the bits of separate calls on row slices across the
block boundaries, that the word engine renormalizes through the public
renormalize, that both engines hand exp_algebra and renormalize their own
plane-major stacks, that no engine writes to its inputs, and that both
refuse a NaN or inf entry and malformed stacks.  The planar character
values, fiber residual and Gram defect are checked against their matmul
forms on 0, 1 and 1000 rows, on nested stacks, read-only broadcast views
and a lone pair, the five pair kernels are checked to refuse two stacks
of different shapes, and the Gram defect is checked to be exactly
Hermitian.  commutator is checked to be, bit for bit, renormalize of the
raw product whose distance fiber_residual measures, unitarity_defect to
read u^H u - Id on a lone matrix and on stacks, exp_algebra's squaring
branch to be the planar square of a top-level exp_algebra(x / 2), and
both engines to refuse a finite pair off SU(3) on entry.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import make_rng
from oracle_kernels import (
    adjoint_matrix_einsum,
    algebra_from_coords,
    angles_have_relation_grid,
    apply_word_loop,
    apply_word_matmul,
    apply_word_stack_matmul,
    centralizer_intersection_svd,
    character_values_matmul,
    d_kappa_rank_svd,
    dagger_conjugate,
    det_loop,
    exp_algebra_eigh,
    entries_loop,
    fiber_residual_loop,
    fiber_residual_matmul,
    flow_step_matmul,
    flow_walk_matmul,
    gram_defect_matmul,
    is_generic_lapack,
    product_loop,
    random_algebra,
    renormalize_loop,
    renormalize_matmul,
    renormalize_svd,
    unitary_eigensystem_schur,
)
from su3lab import cli, fiber, flows, mcg, traces
from su3lab.errors import DriftExplosionError, InvalidGroupElementError
from su3lab.experiments import matrix_from_c_spec
from su3lab.fiber import (
    _FULL_RANK_FLOOR,
    FIBER_TOL,
    NULLSPACE_TOL,
    RANK_TOL,
    RepPoint,
    _full_rank_rows,
    base_point,
    centralizer_intersection,
    d_kappa_matrix,
    d_kappa_rank,
)
from su3lab.su3 import (
    EXP_TAYLOR_C1,
    IDENTITY,
    OMEGA,
    REGULARITY_GAP,
    RENORM_GUARD,
    UNITARITY_TOL,
    adjoint_matrix,
    dagger,
    eigenvalue_angles,
    exp_algebra,
    _det3,
    _gram_defect_planes,
    _renormalize3,
    _planar_product,
    _plane_major,
    haar_random,
    renormalize,
    unitarity_defect,
    unitary_eigensystem,
)
from su3lab.traces import (
    GENERICITY_HEIGHT,
    GENERICITY_TOL,
    angles_have_relation,
    is_generic,
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


def is_plane_major(x: np.ndarray) -> bool:
    """Whether a (..., 3, 3) stack's memory holds its (3, 3, n) planes."""
    return x.reshape(-1, 3, 3).transpose(1, 2, 0).flags.c_contiguous


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
@example(seed=106, log_lam=np.log10(7.0), sign=1.0)
def test_exp_repeated_eigenvalues(seed, log_lam, sign):
    # Spectrum (l, l, -2l): w = 0 exactly, det Q = 2 sign l^3 at its
    # extreme for the given c1, with either sign.  The example sits above
    # EXP_SQUARING_C1, where the closed form alone missed EXP_TOL in det.
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


def test_exp_squaring_is_the_planar_square_of_the_half():
    """Above EXP_SQUARING_C1, exp_algebra(x) is bit for bit the planar
    square of a top-level exp_algebra(x / 2): the nested level gets its
    elements plane-major, as the top level does, so its c0 sum runs in the
    same order.  200 Gaussian elements at c1 = 100."""
    x = algebra_from_coords(coords_with_c1(make_rng(32), 100.0, 200))
    half = exp_algebra(x / 2)
    assert np.array_equal(exp_algebra(x), _planar_product(half, half))


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


def step_tol(u: np.ndarray) -> float:
    """POLAR_TOL plus the error of one Newton-Schulz step on u: it moves
    each singular value s to 1 - (3/8) x^2 for x = s^2 - 1, and dividing
    the determinant out of one column adds up to (9/8) x^2, so the result
    is within 2 x^2 of the SVD polar factor and of SU(3) for the largest
    |x|: under 1e-16 more than POLAR_TOL for |x| below 7e-9, and at most
    7.2e-13 more at RENORM_GUARD, where |x| <= 3 RENORM_GUARD."""
    x = np.abs(np.linalg.svd(u, compute_uv=False) ** 2 - 1).max()
    return POLAR_TOL + 2 * x**2


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.floats(-16.0, np.log10(RENORM_GUARD)))
def test_renormalize_matches_svd_polar_below_threshold(seed, log_defect):
    rng = make_rng(seed)
    u = drifted(rng, 10.0**log_defect, 32)
    assert gram_defect(u) <= RENORM_GUARD
    out = renormalize(u)
    tol = step_tol(u)
    assert np.abs(out - renormalize_svd(u)).max() <= tol
    assert np.abs(out @ dagger(out) - IDENTITY).max() <= tol
    assert np.abs(np.linalg.det(out) - 1).max() <= tol


# Drifts of the mixed stacks: the product paths' and five decades above it,
# where the step's own error is still below POLAR_TOL.
MIXED_DRIFTS = (1e-14, 5e-9)


def mixed_drift_stack(rng: np.random.Generator, rows: int) -> np.ndarray:
    """`rows` drifted matrices, alternating the two MIXED_DRIFTS."""
    u = drifted(rng, MIXED_DRIFTS[0], rows)
    u[1::2] = drifted(rng, MIXED_DRIFTS[1], rows // 2)
    return u


def test_renormalize_mixed_stack_matches_svd_polar():
    """A stack mixing the product paths' drift with drift five decades
    above it is the SVD polar factor to POLAR_TOL; one row above the guard
    refuses the whole stack."""
    rng = make_rng(5)
    u = mixed_drift_stack(rng, 40)
    assert 1e-9 < gram_defect(u) <= RENORM_GUARD
    out = renormalize(u)
    assert np.abs(out - renormalize_svd(u)).max() <= POLAR_TOL
    assert np.abs(out @ dagger(out) - IDENTITY).max() <= POLAR_TOL
    u[17] = drifted(rng, 1e-4, 1)[0]
    with pytest.raises(DriftExplosionError):
        renormalize(u)


@pytest.mark.parametrize("rows", [1, 40, 8000])
@pytest.mark.parametrize("plane_major", [False, True], ids=["c_ordered", "plane_major"])
def test_stacked_renormalize_is_row_invariant(rows, plane_major):
    """Row i of a stacked renormalize has the bits of renormalize on the
    1-row stack u[i:i + 1], on stacks that mix MIXED_DRIFTS, C-ordered or
    plane-major: one Newton-Schulz step is elementwise on the planes, and
    the stack-wide Gram defect only gates."""
    u = mixed_drift_stack(make_rng(31), rows)
    out = renormalize(_plane_major(u) if plane_major else u)
    alone = np.concatenate([renormalize(u[i : i + 1]) for i in range(rows)])
    assert np.array_equal(bits(out), bits(alone))


def with_singular_values(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    return (haar_random(rng) * s) @ haar_random(rng)


def with_gram_defect(rng: np.random.Generator, defect: float) -> np.ndarray:
    """W V^H diag(s) V with Haar W and V and s = (s0, 1, 1): u^H u - Id is
    (s0^2 - 1) times the outer product of V's first row, so s0^2 - 1 =
    defect / max_k |V_0k|^2 makes the signed Gram defect `defect`."""
    v = haar_random(rng)
    s = np.ones(3)
    s[0] = np.sqrt(1 + defect / np.abs(v[0]).max() ** 2)
    return haar_random(rng) @ (dagger(v) * s) @ v


# renormalize must refuse every input with a singular value farther than
# this from 1: then |s^2 - 1| > 3 RENORM_GUARD, and some entry of the 3x3
# matrix u^H u - Id is at least a third of its spectral norm.
SINGULAR_VALUE_BOUND = 2 * RENORM_GUARD


def in_stack(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """u as the middle row of a 3-row stack, between two Haar matrices."""
    return np.stack([haar_random(rng), u, haar_random(rng)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_renormalize_guard_at_its_threshold(sign):
    """The same verdicts and results on a lone matrix and as the middle row
    of a stack, whose guard takes the stack's largest Gram defect."""
    for stacked in (False, True):
        rng = make_rng(6)
        wrap = (lambda u: in_stack(rng, u)) if stacked else (lambda u: u)
        below = with_gram_defect(rng, sign * RENORM_GUARD * (1 - 1e-4))
        assert RENORM_GUARD * (1 - 2e-4) < gram_defect(below) < RENORM_GUARD
        below = wrap(below)
        out = renormalize(below)
        tol = step_tol(below)
        assert np.abs(out - renormalize_svd(below)).max() <= tol
        assert np.abs(out @ dagger(out) - IDENTITY).max() <= tol
        assert np.abs(np.linalg.det(out) - 1).max() <= tol
        over = with_gram_defect(rng, sign * RENORM_GUARD * (1 + 1e-4))
        assert RENORM_GUARD < gram_defect(over) < RENORM_GUARD * (1 + 2e-4)
        with pytest.raises(DriftExplosionError):
            renormalize(wrap(over))
        far = np.array([1 + sign * SINGULAR_VALUE_BOUND * (1 + 1e-3), 1.0, 1.0])
        above = with_singular_values(rng, far)
        with pytest.raises(DriftExplosionError):
            renormalize(wrap(above))
        # In the Fourier frame u^H u - Id spreads evenly over all nine
        # entries, so the Gram defect is the least it can be,
        # |s0^2 - 1| / 3 > 1.3e-8 (to its roundoff, about 1e-16).
        fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
        flat = (haar_random(rng) * far) @ fourier
        assert gram_defect(flat) == pytest.approx(abs(far[0] ** 2 - 1) / 3, abs=1e-15)
        assert gram_defect(flat) > RENORM_GUARD
        with pytest.raises(DriftExplosionError):
            renormalize(wrap(flat))


@settings(max_examples=60, deadline=None)
@given(
    SEEDS,
    st.one_of(
        st.floats(0.0, 1 - SINGULAR_VALUE_BOUND * (1 + 1e-3)),
        st.floats(1 + SINGULAR_VALUE_BOUND * (1 + 1e-3), 3.0),
    ),
    st.floats(1 - SINGULAR_VALUE_BOUND, 1 + SINGULAR_VALUE_BOUND),
    st.floats(1 - SINGULAR_VALUE_BOUND, 1 + SINGULAR_VALUE_BOUND),
)
def test_renormalize_refuses_far_singular_values(seed, s0, s1, s2):
    """A singular value farther than SINGULAR_VALUE_BOUND from 1 gives |s^2 - 1|
    above 3 RENORM_GUARD, so some entry of u^H u - Id is above RENORM_GUARD."""
    rng = make_rng(seed)
    u = with_singular_values(rng, np.array([s0, s1, s2]))
    with pytest.raises(DriftExplosionError):
        renormalize(u)
    with pytest.raises(DriftExplosionError):
        renormalize(in_stack(rng, u))


def test_renormalize_single_matrix_and_empty_stacks():
    rng = make_rng(8)
    for defect in (1e-15, 5e-9):
        u = drifted(rng, defect, 1)[0]
        out = renormalize(u)
        assert out.shape == (3, 3)
        assert np.abs(out - renormalize_svd(u)).max() <= POLAR_TOL
    with pytest.raises(DriftExplosionError):
        renormalize(drifted(rng, 1e-4, 1)[0])
    for shape in ((0, 3, 3), (2, 0, 3, 3)):
        assert renormalize(np.empty(shape, dtype=complex)).shape == shape


@pytest.mark.parametrize("shape", [(0, 3, 3), (1, 3, 3), (2, 5, 3, 3), (1000, 3, 3)])
@pytest.mark.parametrize("defect", [1e-14, 5e-9, 1e-4])
def test_stacked_renormalize_matches_svd_polar(shape, defect):
    """Stacks run on planes, with their own determinant: the SVD polar
    factor to POLAR_TOL at any stack shape, at the product paths' drift and
    five decades above it; a non-empty stack drifted above the guard is
    refused."""
    rng = make_rng(10)
    size = int(np.prod(shape[:-2]))
    u = drifted(rng, defect, size).reshape(shape)
    if defect > RENORM_GUARD and size:
        with pytest.raises(DriftExplosionError):
            renormalize(u)
        return
    out = renormalize(u)
    assert out.shape == shape and is_plane_major(out)
    assert np.abs(out - renormalize_svd(u)).max(initial=0.0) <= POLAR_TOL
    assert np.abs(out @ dagger(out) - IDENTITY).max(initial=0.0) <= POLAR_TOL
    assert np.abs(np.linalg.det(out) - 1).max(initial=0.0) <= POLAR_TOL


def algebra_at_scale(rng: np.random.Generator, scale: float, size: int) -> np.ndarray:
    return algebra_from_coords(scale * rng.standard_normal((size, 8)))


def haar_pair(rng: np.random.Generator, scale, size: int):
    """Two Haar stacks; scale is unused."""
    return haar_random(rng, size=size), haar_random(rng, size=size)


# The stacked planar kernels and their inputs: renormalize at the drift of
# the product paths and five decades above it (ids are the drifts),
# exp_algebra with c1 below EXP_TAYLOR_C1, in between and above
# EXP_SQUARING_C1, variation, and the two pair kernels on Haar pairs.
PLANAR_KERNELS = [
    pytest.param(renormalize, drifted, 1e-14, id="1e-14"),
    pytest.param(renormalize, drifted, 5e-9, id="5e-09"),
    pytest.param(exp_algebra, algebra_at_scale, 1e-3, id="exp_taylor"),
    pytest.param(exp_algebra, algebra_at_scale, 1.0, id="exp_closed"),
    pytest.param(exp_algebra, algebra_at_scale, 12.0, id="exp_squaring"),
    pytest.param(flows.variation, drifted, 1e-14, id="variation"),
    pytest.param(traces.character_values, haar_pair, None, id="characters"),
    pytest.param(
        lambda a, b: fiber.fiber_residual(a, b, IDENTITY), haar_pair, None, id="residual"
    ),
]


@pytest.mark.parametrize("rows", [0, 1, 1000])
@pytest.mark.parametrize("kernel, draw, scale", PLANAR_KERNELS)
def test_renormalize_returns_planes_for_planes(rows, kernel, draw, scale):
    """Given C-ordered stacks or their plane-major copies, as both orbit
    engines pass them, each kernel gives the same bits for both layouts
    and leaves its input as it was; a kernel that returns a stack returns
    a new plane-major one."""
    args = draw(make_rng(16), scale, rows)
    args = args if isinstance(args, tuple) else (args,)
    results = []
    for xs in (args, tuple(_plane_major(u) for u in args)):
        saved = [x.copy() for x in xs]
        out = kernel(*xs)
        assert len(out) == rows
        if out.shape[1:] == (3, 3):
            assert is_plane_major(out)
        for x, x0 in zip(xs, saved):
            assert not np.shares_memory(out, x)
            assert np.array_equal(bits(x), bits(x0))
        results.append(out)
    assert np.array_equal(bits(results[0]), bits(results[1]))


@pytest.mark.parametrize("rows", [0, 1, 1000])
def test_planar_product_returns_new_planes_laid_out_like_x(rows):
    """_planar_product(x, y) is x y to 1e-15 on strided operands, the
    dagger view of a plane-major stack and a C-ordered stack, as a new
    stack laid out like x that shares no memory with x or y."""
    rng = make_rng(21)
    u, v = haar_random(rng, size=rows), haar_random(rng, size=rows)
    planes = _plane_major(v)
    # Each operand with the axis order that is C-contiguous in memory.
    c_ordered_u = (u, lambda m: m)
    dagger_of_v = (np.conjugate(planes).swapaxes(1, 2), lambda m: m.transpose(2, 1, 0))
    v_itself = (planes, lambda m: m.transpose(1, 2, 0))
    for (x, x_order), (y, _), ref in (
        (c_ordered_u, dagger_of_v, u @ dagger(v)),
        (dagger_of_v, c_ordered_u, dagger(v) @ u),
        (v_itself, c_ordered_u, v @ u),
    ):
        out = _planar_product(x, y)
        assert np.abs(out - ref).max(initial=0.0) <= 1e-15
        assert x_order(x).flags.c_contiguous and x_order(out).flags.c_contiguous
        assert not np.shares_memory(out, x) and not np.shares_memory(out, y)


@pytest.mark.parametrize("length", [16, 20])
def test_word_engine_renormalizes_through_renormalize(monkeypatch, length):
    """apply_word_stack renormalizes both slots through the public
    renormalize, once each every WORD_RENORM_CADENCE letters."""
    shapes = []

    def counting(u):
        shapes.append(u.shape)
        return renormalize(u)

    monkeypatch.setattr(mcg, "renormalize", counting)
    rng = make_rng(17)
    a, b = haar_random(rng, size=8), haar_random(rng, size=8)
    mcg.apply_word_stack(mcg.random_word_indices(8, length, rng), a, b)
    assert shapes == [(8, 3, 3)] * (2 * (length // mcg.WORD_RENORM_CADENCE))


def test_det3_matches_lapack_det():
    rng = make_rng(9)
    for m in rng.standard_normal((10, 3, 3)) + 1j * rng.standard_normal((10, 3, 3)):
        assert np.isscalar(_det3(m))
        assert abs(_det3(m) - np.linalg.det(m)) <= 1e-13


def test_det3_on_plane_rows_matches_lapack_det():
    """The rows of planes give every matrix's determinant at once."""
    rng = make_rng(23)
    gauss = rng.standard_normal((1000, 3, 3)) + 1j * rng.standard_normal((1000, 3, 3))
    for m in (haar_random(rng, size=1000), gauss):
        rows = _plane_major(m).transpose(1, 2, 0)
        assert np.abs(_det3(rows) - np.linalg.det(m)).max() <= 1e-13


def bits(m) -> np.ndarray:
    """The IEEE bit patterns of a complex array or scalar."""
    return np.asarray(m, dtype=complex).reshape(-1).view(np.int64)


# Largest difference allowed between the entry path and the matmul one on
# words of at most SHORT_WORD letters: the two round differently, and the
# letters amplify a difference by about exp(0.115) each.
SHORT_WORD = 16
SHORT_WORD_TOL = 1e-13


def test_single_pair_word_path_is_bit_identical_to_loops():
    """apply_word and renormalize on one matrix give the bits of the plain
    nested loops over Python complex numbers in oracle_kernels, and the
    values of the matmul and numpy-scalar formulation within
    SHORT_WORD_TOL on words of at most SHORT_WORD letters; _det3 on a
    matrix's rows is the loop's cofactor expansion, bit for bit."""
    rng = make_rng(2027)
    for _ in range(32):
        p = base_point(haar_random(rng))
        word = mcg.random_word(200, rng)
        q = mcg.apply_word(word, p)
        a, b = apply_word_loop(word.letters, p.a, p.b)
        assert np.array_equal(bits(q.a), bits(a))
        assert np.array_equal(bits(q.b), bits(b))
        for length in (1, 7, 8, 9, SHORT_WORD):
            word = mcg.random_word(length, rng)
            q = mcg.apply_word(word, p)
            a, b = apply_word_matmul(word.letters, p.a, p.b)
            assert np.abs(q.a - a).max() <= SHORT_WORD_TOL
            assert np.abs(q.b - b).max() <= SHORT_WORD_TOL
    for defect in (1e-15, 5e-9):
        stack = drifted(rng, defect, 64)
        for u in stack:
            assert gram_defect(u) <= RENORM_GUARD
            got = renormalize(u)
            assert np.array_equal(bits(got), bits(np.array(renormalize_loop(entries_loop(u)))))
            assert np.abs(got - renormalize_matmul(u)).max() <= POLAR_TOL
            rows = entries_loop(u)
            assert np.array_equal(bits(_det3(rows)), bits(det_loop(rows)))
            assert np.array_equal(bits(dagger(u)), bits(dagger_conjugate(u)))
        assert dagger(stack).strides == dagger_conjugate(stack).strides


def test_product_paths_stay_far_inside_the_guard(monkeypatch, tmp_path):
    """Every matrix that the word engines, the flow walk and the commutator
    hand to renormalize in `orbit`, `sample --angles`, `sample` on Haar
    pairs, an mcg_orbit_distribution run and twist flows on a few points
    has Gram defect at most UNITARITY_TOL / 100: renormalize removes
    roundoff there, more than four decades inside its guard."""
    defects = []

    def recording(u):
        defects.append(gram_defect(u))
        return renormalize(u)

    def recording_entries(u):
        defects.append(gram_defect(np.array(u).reshape(3, 3)))
        return _renormalize3(u)

    for module in (mcg, flows, fiber):
        monkeypatch.setattr(module, "renormalize", recording)
    # apply_word renormalizes its pair's entries.
    monkeypatch.setattr(mcg, "_renormalize3", recording_entries)
    counts = []
    label = ["--angles", "0.123,0.456", "--seed", "3"]
    out = ["--out", str(tmp_path / "rows.csv")]
    assert cli.main(["orbit", "--n", "4", "--word-length", "64", *label, *out]) == 0
    counts.append(len(defects))
    assert cli.main(["sample", "--count", "16", "--walk-steps", "256", *label, *out]) == 0
    counts.append(len(defects))
    assert cli.main(["sample", "--count", "64", "--seed", "3", *out]) == 0
    counts.append(len(defects))
    cfg = tmp_path / "orbit.cfg"
    cfg.write_text(
        "kind = mcg_orbit_distribution\nseed = 3\nN = 50\nword_length = 40\n"
        "c_spec = angles=0.123,0.456\n",
        encoding="utf-8",
    )
    # N = 50 is too few for the KS gate (exit 1); the run is what counts.
    assert cli.main(["experiment", str(cfg)]) in (0, 1)
    counts.append(len(defects))
    # Each flowed pair is wrapped with its own commutator as its label.
    rng = make_rng(33)
    for _ in range(4):
        p = RepPoint.from_pair(haar_random(rng), haar_random(rng))
        for curve in flows.CURVES:
            for part in flows.PARTS:
                t = rng.uniform(-flows.TWIST_TIME_BOUND, flows.TWIST_TIME_BOUND)
                p = flows.twist_flow(p, curve, part, t)
                p = RepPoint.from_pair(p.a, p.b)
    counts.append(len(defects))
    assert 0 < counts[0] and all(x < y for x, y in zip(counts, counts[1:]))
    assert max(defects) <= UNITARITY_TOL / 100


# The fiber labels of the golden-digest table and the CLI edge labels: all
# name diagonal matrices.
DIAGONAL_LABELS = (
    "angles=0.123,0.456",
    "trace=0.5,0.1",
    f"angles={np.sqrt(2) - 1},{np.sqrt(3) - 1}",
    "angles=0,0",
    "trace=3,0",
)


def non_normal_with_angles(rng: np.random.Generator, angles) -> np.ndarray:
    """V (diag(exp(2 pi i angles)) + N) V^H with Haar V and N strictly upper
    triangular, its largest entry 3e-10."""
    v = haar_random(rng)
    n = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 1)
    n *= 3e-10 / np.abs(n).max()
    return v @ (np.diag(np.exp(2j * np.pi * np.asarray(angles))) + n) @ dagger(v)


def test_eigensystem_matches_schur_frame():
    """unitary_eigensystem (eig, then QR of the eigenvectors) against the
    complex Schur frame: the same angles bit for bit and the same frame up
    to column phases on Haar matrices, the same frame bit for bit on
    diagonal labels (a zero's sign aside), and a unitary frame whose
    base_point lands on the fiber at repeated and nearly repeated
    eigenvalues of non-normal input."""
    rng = make_rng(14)
    for u in haar_random(rng, 1000):
        angles, z = unitary_eigensystem(u)
        ref_angles, ref_z = unitary_eigensystem_schur(u)
        assert np.array_equal(bits(angles), bits(ref_angles))
        phase = np.sum(ref_z.conj() * z, axis=0)
        assert np.abs(z - ref_z * (phase / np.abs(phase))).max() <= 1e-13
    for label in DIAGONAL_LABELS:
        c = matrix_from_c_spec(label)
        for got, ref in zip(unitary_eigensystem(c), unitary_eigensystem_schur(c)):
            # + 0.0 maps -0.0 to +0.0 and keeps every other value's bits:
            # under OpenBLAS's Nehalem kernel the QR returns -0.0 where
            # the Schur frame has +0.0.
            assert np.array_equal(bits(got + 0.0), bits(ref + 0.0))
    for k in range(100):
        x = rng.random()
        for angles in (
            (x, x, -2 * x),
            (k % 3 / 3,) * 3,
            (x, x + 1e-9, -2 * x - 1e-9),
        ):
            c = non_normal_with_angles(rng, angles)
            _, z = unitary_eigensystem(c)
            assert np.abs(dagger(z) @ z - IDENTITY).max() <= 1e-14
            assert base_point(c).residual() <= FIBER_TOL


def planted_relations(rng: np.random.Generator, m: np.ndarray) -> np.ndarray:
    """Angle triples satisfying m1 th1 + m2 th2 + m0 = 0 to roundoff, one
    per row (m0, m1, m2) of m; the free angle is uniform in [0, 1)."""
    m0, m1, m2 = m.T.astype(float)
    free = rng.random(len(m))
    on_second = m2 != 0
    th1 = np.where(on_second, free, -m0 / np.where(on_second, 1.0, m1))
    th2 = np.where(on_second, -(m0 + m1 * free) / np.where(on_second, m2, 1.0), free)
    return np.stack([th1, th2, -th1 - th2], axis=-1)


def relation_vectors(rng: np.random.Generator, height: int) -> np.ndarray:
    """Integer vectors (m0, m1, m2) of height exactly `height`, not all with
    m1 and m2 nonzero: blocks with m1 = 0, with m2 = 0, with |m0| = height,
    and general ones with the height on m1 or m2."""
    rows = []
    for fixed in ("m1_zero", "m2_zero", "m0_height", "m1_height", "m2_height"):
        m = rng.integers(-height, height + 1, size=(40, 3))
        sign = rng.choice([-1, 1], size=40)
        if fixed == "m1_zero":
            m[:, 1] = 0
            m[:, 2] = sign * height
        elif fixed == "m2_zero":
            m[:, 2] = 0
            m[:, 1] = sign * height
        elif fixed == "m0_height":
            m[:, 0] = sign * height
        else:
            m[:, 1 if fixed == "m1_height" else 2] = sign * height
        # Keep the equation solvable for the angle that carries it.
        zero = (m[:, 1] == 0) & (m[:, 2] == 0)
        m[zero, 2] = 1
        rows.append(m)
    return np.concatenate(rows)


def test_relation_search_matches_full_grid():
    """The half-grid search gives the full grid's verdict on Haar angles,
    on planted relations at every height up to GENERICITY_HEIGHT (also
    just inside and outside the tolerance), and on height-21 relations,
    which neither finds; one triple gives a numpy bool."""
    rng = make_rng(1111)
    haar = eigenvalue_angles(haar_random(rng, 2000))
    assert np.array_equal(angles_have_relation(haar), angles_have_relation_grid(haar))
    for height in range(1, GENERICITY_HEIGHT + 1):
        m = relation_vectors(rng, height)
        exact = planted_relations(rng, m)
        assert angles_have_relation(exact).all()
        assert angles_have_relation_grid(exact).all()
        # Residuals near the tolerance, carried by whichever angle solves
        # the relation: both searches must draw the line at the same bits.
        coeff = np.where(m[:, 2] != 0, m[:, 2], m[:, 1]).astype(float)
        col = np.where(m[:, 2] != 0, 1, 0)
        for factor in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0):
            shifted = exact.copy()
            shifted[np.arange(len(m)), col] += factor * GENERICITY_TOL / coeff
            assert np.array_equal(
                angles_have_relation(shifted), angles_have_relation_grid(shifted)
            )
    above = GENERICITY_HEIGHT + 1
    m = rng.integers(-GENERICITY_HEIGHT, GENERICITY_HEIGHT + 1, size=(80, 3))
    m[:40, 1:] = (above, 1)
    m[40:, 1:] = (1, above)
    beyond = planted_relations(rng, m)
    assert not angles_have_relation(beyond).any()
    assert not angles_have_relation_grid(beyond).any()

    one = angles_have_relation(haar[0])
    assert type(one) is np.bool_
    assert type(angles_have_relation(np.array([1 / 3, 1 / 3, 1 / 3]))) is np.bool_
    empty = angles_have_relation(np.empty((0, 3)))
    assert empty.shape == (0,) and empty.dtype == bool
    # A non-finite first angle poisons every m1, m1 = 0 included, in both.
    odd = np.array([[np.nan, 0.5, 0.0], [0.25, np.nan, 0.0], [np.inf, 0.5, 0.0]])
    with np.errstate(invalid="ignore"):
        assert not angles_have_relation(odd).any()
        assert not angles_have_relation_grid(odd).any()
    nested = np.concatenate([haar[:4], exact[:4]]).reshape(2, 4, 3)
    assert np.array_equal(angles_have_relation(nested), angles_have_relation_grid(nested))
    assert angles_have_relation(nested).shape == (2, 4)


def test_adjoint_matrix_matches_einsum_form():
    rng = make_rng(2222)
    g = haar_random(rng, 2000)
    assert np.abs(adjoint_matrix(g) - adjoint_matrix_einsum(g)).max() <= 1e-15
    assert np.abs(adjoint_matrix(g[0]) - adjoint_matrix_einsum(g[0])).max() <= 1e-15
    nested = g[:8].reshape(2, 4, 3, 3)
    assert adjoint_matrix(nested).shape == (2, 4, 8, 8)
    assert np.abs(adjoint_matrix(nested) - adjoint_matrix_einsum(nested)).max() <= 1e-15


def mixed_rank_pairs():
    """2000 pairs: rows 0..1499 Haar, and rows 1500 on commuting pairs whose
    second element carries a planted relation."""
    rng = make_rng(3333)
    a = haar_random(rng, 2000)
    b = haar_random(rng, 2000)
    # Rows 1500 on: a and b diagonal in one Haar frame, so they commute.
    v = haar_random(rng, 500)
    torus = np.exp(2j * np.pi * rng.random((500, 2)))
    a_diag = np.stack([torus[:, 0], torus[:, 1], 1 / (torus[:, 0] * torus[:, 1])], -1)
    # Low heights: is_generic reads the angles in sorted order, which can
    # raise a relation's height up to twofold.
    m = np.concatenate([relation_vectors(rng, h) for h in (1, 2, 3)])[:500]
    b_diag = np.exp(2j * np.pi * planted_relations(rng, m))
    a[1500:] = (v * a_diag[:, None, :]) @ dagger(v)
    b[1500:] = (v * b_diag[:, None, :]) @ dagger(v)
    return a, b


def test_rank_layers_match_reference_kernels(monkeypatch):
    """Ranks, centralizer intersections and genericity flags from the
    one-GEMM adjoint, the full-rank check and the closed-form genericity
    screen before the half-grid search equal those from the einsum
    adjoint, an SVD of every matrix, and LAPACK angles with the full grid
    on every element, on Haar pairs and on commuting pairs whose second
    element carries a planted relation."""
    a, b = mixed_rank_pairs()

    def layers(generic):
        return (
            fiber.d_kappa_rank(d_kappa_matrix(a, b)),
            fiber.centralizer_intersection(a, b),
            generic(a),
            generic(b),
        )

    fast = layers(is_generic)
    monkeypatch.setattr(fiber, "adjoint_matrix", adjoint_matrix_einsum)
    monkeypatch.setattr(fiber, "d_kappa_rank", d_kappa_rank_svd)
    monkeypatch.setattr(fiber, "centralizer_intersection", centralizer_intersection_svd)
    slow = layers(is_generic_lapack)
    for x, y in zip(fast, slow):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
    ranks, inters, _, generic_b = fast
    assert (ranks[:1500] == 8).all() and (ranks[1500:] < 8).all()
    assert (inters[1500:] > 0).all()
    assert not generic_b[1500:].any()


def test_only_rows_the_genericity_screen_cannot_settle_reach_lapack(monkeypatch):
    """No np.linalg.eigvals call runs for 2000 Haar elements; on the mixed
    pairs' second elements, eigvals sees exactly the 500 rows with a
    planted relation, once, and the flags are the reference's."""
    haar = haar_random(make_rng(45), 2000)
    _, b = mixed_rank_pairs()
    want = is_generic_lapack(b)
    seen = []
    eigvals = np.linalg.eigvals

    def spy(x, *args, **kwargs):
        seen.append(np.array(x))
        return eigvals(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    assert is_generic(haar).all()
    assert seen == []
    assert np.array_equal(is_generic(b), want)
    assert [x.shape for x in seen] == [(500, 3, 3)]
    assert np.array_equal(seen[0], b[1500:])


def conjugated_spectra(rng: np.random.Generator, angles: np.ndarray) -> np.ndarray:
    """Unitary matrices with the given (n, 3) eigenvalue angles, in Haar
    frames: special unitary where each row sums to an integer."""
    v = haar_random(rng, len(angles))
    return (v * np.exp(2j * np.pi * angles)[:, None, :]) @ dagger(v)


def genericity_cases() -> dict:
    """Named stacks on both sides of every test is_generic makes: planted
    relations at and around GENERICITY_TOL, gaps around REGULARITY_GAP, a
    repeated root, the central elements, and multiples and perturbations
    of Haar elements."""
    rng = make_rng(46)
    cases = {}
    # Heights up to 10, so that the relation read on sorted angles, up to
    # twice as high, stays within GENERICITY_HEIGHT.
    m = np.concatenate([relation_vectors(rng, h) for h in (1, 2, 3, 5, 10)])
    exact = planted_relations(rng, m)
    coeff = np.where(m[:, 2] != 0, m[:, 2], m[:, 1]).astype(float)
    col = np.where(m[:, 2] != 0, 1, 0)
    for factor in (0.0, 0.5, 1 - 1e-6, 1 + 1e-6, 2.0):
        shifted = exact.copy()
        shifted[np.arange(len(m)), col] += factor * GENERICITY_TOL / coeff
        shifted[:, 2] = -shifted[:, 0] - shifted[:, 1]
        cases[f"relation_tol_x{factor}"] = conjugated_spectra(rng, shifted)
    t = rng.random(400)
    for factor in (0.5, 1 - 1e-3, 1 + 1e-3, 2.0):
        gap = factor * REGULARITY_GAP
        angles = np.stack([t, t + gap, -2 * t - gap], axis=-1)
        cases[f"gap_x{factor}"] = conjugated_spectra(rng, angles)
    # th1 + 2 th2 = 0 makes th3 = th2: a double root.
    cases["double_root"] = conjugated_spectra(
        rng, planted_relations(rng, np.tile([0, 1, 2], (400, 1)))
    )
    cases["central"] = np.stack([IDENTITY, OMEGA * IDENTITY, OMEGA**2 * IDENTITY])
    # Determinant off 1 and an eigenvalue 1, whose angle rounds to either
    # side of 0 mod 1: sorted first or last.
    angles = np.zeros((400, 3))
    angles[:, :2] = rng.random((400, 2))
    cases["eigenvalue_one"] = conjugated_spectra(rng, angles)
    haar = haar_random(rng, 2000)
    cases["twice_haar"] = 2 * haar
    for scale in (1e-6, 1e-3):
        noise = rng.standard_normal((2000, 3, 3, 2)) @ np.array([1, 1j])
        cases[f"haar_noise_{scale}"] = haar + scale * noise
    return cases


@pytest.mark.parametrize("name", list(genericity_cases()))
def test_is_generic_equals_the_lapack_reference(name):
    """On every case, is_generic gives the reference's flags without a
    numpy warning, whichever rows its closed-form screen settles."""
    u = genericity_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = is_generic(u)
    assert got.dtype == bool and got.shape == u.shape[:-2]
    assert np.array_equal(got, is_generic_lapack(u))


def test_is_generic_keeps_its_shapes():
    """A lone element gives a numpy bool, on the screen's path and on the
    exact path; an empty stack gives an empty array, and a nested stack
    keeps its leading axes."""
    haar = haar_random(make_rng(47), 8)
    for u, want in ((haar[0], True), (IDENTITY, False), (OMEGA * IDENTITY, False)):
        flag = is_generic(u)
        assert type(flag) is np.bool_ and flag == want
    assert is_generic(haar[:0]).shape == (0,)
    nested = is_generic(haar.reshape(2, 4, 3, 3))
    assert nested.shape == (2, 4) and nested.all()


def planted_spectra(rng: np.random.Generator, s: np.ndarray, p: int, q: int) -> np.ndarray:
    """Real p x q matrices U diag(s) V^T, one per row of the (n, min(p, q))
    singular values s, with Haar-like orthonormal U and V."""
    k = min(p, q)
    u, _ = np.linalg.qr(rng.standard_normal((len(s), p, k)))
    v, _ = np.linalg.qr(rng.standard_normal((len(s), q, k)))
    return (u * s[:, None, :]) @ np.swapaxes(v, -1, -2)


def spectra_across_the_thresholds() -> np.ndarray:
    """Rows of 8 singular values whose smallest sits at half and at twice
    the full-rank floor's edge, sqrt(_FULL_RANK_FLOOR max(1, |s|^2)), of
    RANK_TOL max(s_0, 1) and of NULLSPACE_TOL, with the top one below,
    at and above unit scale, and one or two values that small."""
    rows = []
    for top in (1e-2, 1.0, 3.0, 1e3):
        big = top * np.geomspace(1.0, 0.5, 8)
        edge = np.sqrt(_FULL_RANK_FLOOR * max(1.0, np.sum(big[:-1] ** 2)))
        for small in (edge, RANK_TOL * max(top, 1.0), NULLSPACE_TOL):
            for factor in (0.5, 2.0):
                for count in (1, 2):
                    s = big.copy()
                    s[-count:] = factor * small * np.geomspace(1.0, 0.9, count)
                    rows.append(s)
    return np.array(rows)


def test_full_rank_check_certifies_exactly_above_its_floor(monkeypatch):
    """On planted spectra, of 8x16 and of 16x8 matrices, _full_rank_rows is
    True where the smallest singular value is twice the floor's edge and
    False where it is half of it.  d_kappa_rank, with its threshold
    anchored at the top singular value, and centralizer_intersection, fed
    the 16x8 matrices as its two adjoint blocks, equal one SVD of every
    matrix row by row, on both sides of the floor, of RANK_TOL max(s_0, 1)
    and of NULLSPACE_TOL."""
    s = spectra_across_the_thresholds()
    top = np.maximum(s.max(axis=1), 1.0)
    low = s.min(axis=1)
    above_floor = low**2 > 2 * _FULL_RANK_FLOOR * np.maximum(1.0, np.sum(s**2, axis=1))
    assert above_floor.any() and not above_floor.all()
    for p, q in ((8, 16), (16, 8)):
        m = planted_spectra(make_rng(41), s, p, q)
        assert np.array_equal(_full_rank_rows(m), above_floor)
        ranks = d_kappa_rank(m)
        assert np.array_equal(ranks, d_kappa_rank_svd(m))
        assert np.array_equal(ranks < 8, low < RANK_TOL * top)
        assert {6, 7, 8} <= set(ranks.tolist())
    tall = planted_spectra(make_rng(41), s, 16, 8)
    eye = np.eye(8)
    blocks = iter([tall[:, :8] + eye, tall[:, 8:] + eye])
    monkeypatch.setattr(fiber, "adjoint_matrix", lambda g: next(blocks))
    stacked = np.concatenate([tall[:, :8] + eye - eye, tall[:, 8:] + eye - eye], axis=-2)
    want = 8 - np.sum(np.linalg.svd(stacked, compute_uv=False) > NULLSPACE_TOL, axis=-1)
    # Any pair of the stack's shape: the blocks stand in for its adjoints.
    placeholder = np.zeros((len(s), 3, 3), dtype=complex)
    inters = centralizer_intersection(placeholder, placeholder)
    assert np.array_equal(inters, want)
    assert np.array_equal(inters > 0, low < NULLSPACE_TOL)
    assert {0, 1, 2} <= set(inters.tolist())


def test_centralizer_intersection_equals_the_svd_across_its_thresholds():
    """Pairs (a, b) with b = t exp(eps X), t in the maximal torus of a, have
    a joint fixed space that opens as eps goes to 0.  Over eps from 1e-12
    to 1, the stacked [Ad(a) - Id; Ad(b) - Id] has its smallest singular
    value on both sides of NULLSPACE_TOL and of the full-rank floor, and
    centralizer_intersection, and d_kappa_rank of the differential, equal
    one SVD of every matrix row by row."""
    rng = make_rng(43)
    n = 1200
    eps = np.geomspace(1e-12, 1.0, n)
    frame = haar_random(rng, n)
    angles = np.exp(2j * np.pi * rng.random((n, 2, 2)))
    diag = np.concatenate([angles, 1 / angles.prod(axis=-1, keepdims=True)], axis=-1)
    a = (frame * diag[:, 0, None, :]) @ dagger(frame)
    t = (frame * diag[:, 1, None, :]) @ dagger(frame)
    x = random_algebra(rng, n)
    x /= np.linalg.norm(x, axis=(-2, -1), keepdims=True)
    b = renormalize(t @ exp_algebra(eps[:, None, None] * x))
    eye = np.eye(8)
    stacked = np.concatenate([adjoint_matrix(a) - eye, adjoint_matrix(b) - eye], axis=-2)
    s = np.linalg.svd(stacked, compute_uv=False)
    for cut in (NULLSPACE_TOL, np.sqrt(_FULL_RANK_FLOOR * (s**2).sum(axis=-1))):
        assert (s[:, -1] < cut / 2).any() and (s[:, -1] > 2 * cut).any()
    inters = centralizer_intersection(a, b)
    assert np.array_equal(inters, centralizer_intersection_svd(a, b))
    assert {0, 2} <= set(inters.tolist())
    m = d_kappa_matrix(a, b)
    assert np.array_equal(d_kappa_rank(m), d_kappa_rank_svd(m))


def test_only_rows_the_full_rank_check_cannot_settle_reach_the_svd(monkeypatch):
    """No SVD runs for 2000 Haar pairs; on the mixed pairs, the SVD sees
    exactly the 500 commuting rows, once in each rank layer: the check
    answers each row and does not fall back on the whole stack."""
    a, b = mixed_rank_pairs()
    m = d_kappa_matrix(a, b)
    eye = np.eye(8)
    stacked = np.concatenate([adjoint_matrix(a) - eye, adjoint_matrix(b) - eye], axis=-2)
    rng = make_rng(44)
    haar_a, haar_b = haar_random(rng, 2000), haar_random(rng, 2000)
    haar_m = d_kappa_matrix(haar_a, haar_b)
    seen = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        seen.append(np.array(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert (d_kappa_rank(haar_m) == 8).all()
    assert (centralizer_intersection(haar_a, haar_b) == 0).all()
    assert seen == []
    d_kappa_rank(m)
    centralizer_intersection(a, b)
    assert [x.shape for x in seen] == [(500, 8, 16), (500, 16, 8)]
    assert np.array_equal(seen[0], m[1500:])
    assert np.array_equal(seen[1], stacked[1500:])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_full_rank_check_sends_non_finite_rows_to_the_svd(bad):
    """A NaN or inf entry, off or on the diagonal, makes its row False and
    leaves the other rows True, without a numpy warning; an empty stack
    gives an empty answer."""
    m = d_kappa_matrix(*stack_pairs(6)[:2])
    for i, j in ((0, 0), (3, 3), (7, 15), (5, 1)):
        x = m.copy()
        x[2, i, j] = bad
        for stack in (x, np.swapaxes(x, -1, -2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ok = _full_rank_rows(stack)
            assert ok.tolist() == [True, True, False, True, True, True]
    assert _full_rank_rows(m[:0]).shape == (0,)


def test_rank_layers_keep_their_shapes():
    """A lone matrix or pair gives a numpy integer, through the check and
    through the SVD; empty and nested stacks keep their leading axes."""
    a, b, _ = stack_pairs(8)
    m = d_kappa_matrix(a, b)
    for rank in (
        d_kappa_rank(m[0]),
        d_kappa_rank(d_kappa_matrix(IDENTITY, IDENTITY)),
        centralizer_intersection(a[0], b[0]),
        centralizer_intersection(a[0], a[0]),
    ):
        assert type(rank) is np.int64
    assert d_kappa_rank(d_kappa_matrix(IDENTITY, IDENTITY)) == 0
    assert centralizer_intersection(a[0], a[0]) == 2
    for got, want in (
        (d_kappa_rank(m[:0]), d_kappa_rank_svd(m[:0])),
        (centralizer_intersection(a[:0], b[:0]), np.zeros(0, dtype=np.intp)),
        (d_kappa_rank(m.reshape(2, 4, 8, 16)), np.full((2, 4), 8)),
        (centralizer_intersection(a.reshape(2, 4, 3, 3), b.reshape(2, 4, 3, 3)), np.zeros((2, 4))),
    ):
        assert got.dtype == np.intp and got.shape == want.shape
        assert np.array_equal(got, want)


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


# One step on Haar pairs: no chaos yet, only the roundoff of the two kernels.
STEP_TOL = 1e-14


@pytest.mark.parametrize("curve", range(len(flows.CURVES)))
@pytest.mark.parametrize("part_im", [False, True])
def test_flow_step_matches_reference_step(haar_pairs, curve, part_im):
    """Every row forced onto one curve and trace part, so each of the eight
    updates is checked on all 1000 rows."""
    a, b = haar_pairs
    n = len(a)
    curves = np.full(n, curve)
    parts = np.full(n, part_im)
    t = make_rng(15).uniform(-flows.TWIST_TIME_BOUND, flows.TWIST_TIME_BOUND, n)
    pa, pb = _plane_major(a), _plane_major(b)
    fast = flows._flow_step(pa, pb, curves, parts, t)
    assert np.array_equal(pa, a) and np.array_equal(pb, b)
    slow = a.copy(), b.copy()
    flow_step_matmul(*slow, curves, parts, t)
    for x, y in zip(fast, slow):
        assert np.abs(x - y).max() <= STEP_TOL


@pytest.mark.parametrize("rows", [0, 1, 1000])
def test_flow_walk_matches_reference_walk(haar_pairs, rows):
    """The planar walk against the matmul walk with the spectral exponential
    and SVD renormalization; `sample --count 0 --angles` walks 0 rows."""
    a, b = (m[:rows] for m in haar_pairs)
    fast = flows.flow_walk_stack(a, b, 8, make_rng(11))
    slow = flow_walk_matmul(a, b, 8, make_rng(11))
    for x, y in zip(fast, slow):
        assert x.shape == (rows, 3, 3) and is_plane_major(x)
        assert np.abs(x - y).max(initial=0.0) <= ENGINE_TOL


def test_word_engine_matches_reference_kernels(haar_pairs):
    """The planar engine against the four-mask matmul engine with SVD
    renormalization."""
    a, b = haar_pairs
    indices = mcg.random_word_indices(1000, 16, make_rng(12))
    fast = mcg.apply_word_stack(indices, a, b)
    slow = apply_word_stack_matmul(indices, a, b, renormalize_svd)
    assert np.abs(fast[0] - slow[0]).max() <= ENGINE_TOL
    assert np.abs(fast[1] - slow[1]).max() <= ENGINE_TOL


def test_word_stack_in_pieces_gives_the_bits_of_one_call(haar_pairs):
    """Each call restarts its renormalization count, so pieces cut at
    multiples of WORD_RENORM_CADENCE renormalize at the same letters as
    one call, and the slots map back to (a, b) exactly at each cut."""
    a, b = haar_pairs
    indices = mcg.random_word_indices(1000, 200, make_rng(14))
    whole = mcg.apply_word_stack(indices, a, b)
    x, y = a, b
    for lo, hi in ((0, 24), (24, 48), (48, 96), (96, 200)):
        x, y = mcg.apply_word_stack(indices[:, lo:hi], x, y)
    assert np.array_equal(bits(x), bits(whole[0]))
    assert np.array_equal(bits(y), bits(whole[1]))


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
    # A 1-row stack: its planes view is contiguous already, so an engine
    # that worked in place without copying on entry would write to a[0]
    # and b[0].
    for x, y in ((a, b), broadcast, (a[:1], b[:1])):
        flows.flow_walk_stack(x, y, 8, rng)
        mcg.apply_word_stack(indices[: len(x)], x, y)
        renormalize(x)
    for q in (p, frozen):
        for curve in flows.CURVES:
            for part in flows.PARTS:
                flows.twist_flow(q, curve, part, 0.7)
    for m, m0 in zip(inputs, saved):
        assert np.array_equal(m, m0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("element", [0, 1])
def test_engines_refuse_non_finite_input(bad, element):
    """A NaN or inf entry in a or in b is refused where both engines move
    their pairs to planes, so a 1-letter word (each letter) and a 1-step
    walk (several draws of curves) raise before they could pass it on;
    0-row stacks still run."""
    rng = make_rng(18)
    pair = [haar_random(rng, size=4), haar_random(rng, size=4)]
    pair[element][0, 0, 0] = bad
    for letter in range(4):
        with pytest.raises(InvalidGroupElementError):
            mcg.apply_word_stack(np.full((4, 1), letter, dtype=np.int8), *pair)
    for seed in range(1, 6):
        with pytest.raises(InvalidGroupElementError):
            flows.flow_walk_stack(*pair, 1, make_rng(seed))
    empty = np.empty((0, 3, 3), dtype=complex)
    for out in (
        mcg.apply_word_stack(np.empty((0, 1), dtype=np.int8), empty, empty),
        flows.flow_walk_stack(empty, empty, 1, rng),
    ):
        assert [m.shape for m in out] == [(0, 3, 3)] * 2


@pytest.mark.parametrize("scale", [2.0, 1 + 1e-6])
@pytest.mark.parametrize("element", [0, 1])
def test_engines_refuse_pairs_off_the_group(scale, element):
    """One finite row off SU(3), in a or in b, is refused on entry with the
    error RepPoint raises, so a word shorter than WORD_RENORM_CADENCE and
    a walk shorter than RENORM_CADENCE, which never reach the
    renormalization guard, cannot return its drift grown."""
    rng = make_rng(31)
    pair = [haar_random(rng, size=4), haar_random(rng, size=4)]
    pair[element][1] *= scale
    indices = mcg.random_word_indices(4, mcg.WORD_RENORM_CADENCE - 1, rng)
    with pytest.raises(InvalidGroupElementError, match="away from the special unitary"):
        mcg.apply_word_stack(indices, *pair)
    with pytest.raises(InvalidGroupElementError, match="away from the special unitary"):
        flows.flow_walk_stack(*pair, flows.RENORM_CADENCE - 1, rng)


def with_index(indices: np.ndarray, letter: int) -> np.ndarray:
    indices = indices.copy()
    indices[1, 2] = letter
    return indices


# Malformed inputs to both engines, built from 4-row stacks a and b and
# 4 x 8 letter indices.  The flow walk takes no indices, so a 1-row pair is
# well formed for it, and so are the index cases.
MALFORMED = {
    "lone_matrix": lambda a, b, w: (a[0], b, w),
    "one_row_b": lambda a, b, w: (a, b[:1], w),
    "one_row_pair": lambda a, b, w: (a[:1], b[:1], w),
    "three_row_b": lambda a, b, w: (a, b[:3], w),
    "index_7": lambda a, b, w: (a, b, with_index(w, 7)),
    "index_-1": lambda a, b, w: (a, b, with_index(w, -1)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_engines_refuse_malformed_stacks(case):
    """Both engines take only (n, 3, 3) stacks a and b with the same number
    of rows as each other and as the word indices, and letter indices in
    0..3: a lone matrix or a row count that differs raises
    InvalidGroupElementError, so no 1-row stack is broadcast over the
    others, and an index outside 0..3 raises ValueError, as TwistWord
    does for an unknown letter."""
    rng = make_rng(19)
    a, b = haar_random(rng, size=4), haar_random(rng, size=4)
    a, b, indices = MALFORMED[case](a, b, mcg.random_word_indices(4, 8, rng))
    index_case = case.startswith("index")
    with pytest.raises(ValueError if index_case else InvalidGroupElementError):
        mcg.apply_word_stack(indices, a, b)
    if index_case or case == "one_row_pair":
        out = flows.flow_walk_stack(a, b, 1, rng)
        assert [m.shape for m in out] == [(len(a), 3, 3)] * 2
    else:
        with pytest.raises(InvalidGroupElementError):
            flows.flow_walk_stack(a, b, 1, rng)


def test_word_engine_blocks_give_the_bits_of_row_slices():
    """Rows are independent, so the blocks of WORD_BLOCK_ROWS rows give the
    bits of separate calls on row slices, here cut across both block
    boundaries of a stack two blocks and three rows long, and they match the
    four-mask matmul engine."""
    n = 2 * mcg.WORD_BLOCK_ROWS + 3
    rng = make_rng(21)
    a, b = haar_random(rng, size=n), haar_random(rng, size=n)
    indices = mcg.random_word_indices(n, 16, rng)
    whole = mcg.apply_word_stack(indices, a, b)
    cuts = [0, 100, mcg.WORD_BLOCK_ROWS + 5, 2 * mcg.WORD_BLOCK_ROWS + 1, n]
    for lo, hi in zip(cuts, cuts[1:]):
        part = mcg.apply_word_stack(indices[lo:hi], a[lo:hi], b[lo:hi])
        for x, y in zip(part, whole):
            assert np.array_equal(bits(x), bits(y[lo:hi]))
    slow = apply_word_stack_matmul(indices, a, b, renormalize_svd)
    for x, y in zip(whole, slow):
        assert np.abs(x - y).max() <= ENGINE_TOL


@pytest.mark.parametrize(
    "engine",
    [
        lambda a, b, rng: mcg.apply_word_stack(mcg.random_word_indices(5, 9, rng), a, b),
        lambda a, b, rng: flows.flow_walk_stack(a, b, 9, rng),
    ],
    ids=["word", "flow"],
)
def test_word_engine_returns_the_stack_view_of_planes(engine):
    """Both engines: new plane-major stacks, which the planar kernels take
    back without a copy, sharing no memory with the input."""
    rng = make_rng(22)
    a, b = haar_random(rng, size=5), haar_random(rng, size=5)
    for x, out in zip((a, b), engine(a, b, rng)):
        assert out.shape == (5, 3, 3) and is_plane_major(out)
        assert not np.shares_memory(out, x)


def test_engines_hand_their_own_stacks_to_exp_and_renormalize(monkeypatch):
    """The flow walk and the word engine pass exp_algebra and renormalize
    their plane-major stacks as they are, so neither copies them again."""
    seen = []

    def plane_major_only(kernel):
        def checked(x):
            assert is_plane_major(x)
            seen.append(kernel.__name__)
            return kernel(x)

        return checked

    monkeypatch.setattr(flows, "exp_algebra", plane_major_only(exp_algebra))
    monkeypatch.setattr(flows, "renormalize", plane_major_only(renormalize))
    monkeypatch.setattr(mcg, "renormalize", plane_major_only(renormalize))
    rng = make_rng(25)
    a, b = haar_random(rng, size=6), haar_random(rng, size=6)
    flows.flow_walk_stack(a, b, flows.RENORM_CADENCE, rng)
    mcg.apply_word_stack(mcg.random_word_indices(6, mcg.WORD_RENORM_CADENCE, rng), a, b)
    assert seen.count("exp_algebra") == flows.RENORM_CADENCE
    assert seen.count("renormalize") == 4


# The planar character values, fiber residual and Gram defect against
# their matmul forms.  Both add the same few products of unit-size entries
# in another order, so they agree to a few ulps of 3.
PLANAR_TOL = 1e-15


def stack_pairs(rows: int):
    """Haar stacks a and b of `rows` rows, and the fiber label of row 0."""
    rng = make_rng(23)
    a, b = haar_random(rng, size=rows), haar_random(rng, size=rows)
    c = fiber.commutator(a[0], b[0]) if rows else IDENTITY
    return a, b, c


@pytest.mark.parametrize("rows", [0, 1, 1000])
def test_planar_characters_and_residual_match_matmul(rows):
    """On C-ordered stacks and on plane-major ones, as the word engine
    returns them, with the label alone and as a stack."""
    a, b, c = stack_pairs(rows)
    want_values = character_values_matmul(a, b)
    for x, y in ((a, b), (_plane_major(a), _plane_major(b))):
        values = traces.character_values(x, y)
        assert values.shape == (rows, 9)
        assert np.abs(values - want_values).max(initial=0.0) <= PLANAR_TOL
        for label in (c, np.broadcast_to(c, (rows, 3, 3))):
            got = fiber.fiber_residual(x, y, label)
            want = fiber_residual_matmul(a, b, label)
            assert got.shape == (rows,)
            assert np.abs(got - want).max(initial=0.0) <= PLANAR_TOL


# The pair kernels, each called on two stacks a and b.
PAIR_KERNELS = [
    traces.character_values,
    lambda a, b: fiber.fiber_residual(a, b, IDENTITY),
    fiber.commutator,
    d_kappa_matrix,
    centralizer_intersection,
]


def test_planar_characters_and_residual_broadcast():
    """Nested stacks, read-only broadcast views and a lone pair give the
    matmul values, shaped as matmul shapes them.  A lone element against a
    stack, a nested stack against a stack, or two stacks of different
    lengths is refused by every pair kernel with InvalidGroupElementError:
    nothing is broadcast."""
    a, b, c = stack_pairs(12)
    nested = a.reshape(3, 4, 3, 3), b.reshape(3, 4, 3, 3)
    cases = [
        nested,
        (np.broadcast_to(a[0], (12, 3, 3)), b),
        (a[0], b[0]),
    ]
    for x, y in cases:
        got = traces.character_values(x, y)
        want = character_values_matmul(x, y)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= PLANAR_TOL
        got = fiber.fiber_residual(x, y, c)
        want = fiber_residual_matmul(x, y, c)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= PLANAR_TOL
    for x, y in ((a[0], b), (a, b[0]), (nested[0], b[:4]), (a[:2], b[:4])):
        for kernel in PAIR_KERNELS:
            with pytest.raises(InvalidGroupElementError):
                kernel(x, y)


def test_planar_characters_and_residual_on_a_lone_pair():
    """A lone pair keeps its scalar-shaped results: nine values, and one
    numpy float for the residual, with the bits of the plain loops there
    (the residual runs on the pair's entries) and the matmul value within
    PLANAR_TOL."""
    a, b, c = stack_pairs(2)
    values = traces.character_values(a[1], b[1])
    assert values.shape == (9,)
    assert np.abs(values - character_values_matmul(a[1], b[1])).max() <= PLANAR_TOL
    r = fiber.fiber_residual(a[1], b[1], c)
    assert type(r) is np.float64
    assert r == fiber_residual_loop(a[1], b[1], c)
    assert abs(r - fiber_residual_matmul(a[1], b[1], c)) <= PLANAR_TOL
    assert fiber.fiber_residual(a[0], b[0], c) <= FIBER_TOL


@pytest.mark.parametrize("rows", [0, 1, 40])
def test_commutator_renormalizes_the_residual_product(rows):
    """commutator is, bit for bit, renormalize of the raw product
    a b (b a)^H whose distance fiber_residual measures: on a lone pair
    against the nested loops, and on a stack against the planar products
    and row by row against 1-row stacks; the residual from that product
    is exactly 0 on both."""
    a, b, _ = stack_pairs(rows)
    for i in range(rows):
        x, y = entries_loop(a[i]), entries_loop(b[i])
        raw = product_loop(product_loop(x, y), product_loop(y, x), conjugate_transpose=True)
        assert np.array_equal(fiber.commutator(a[i], b[i]), np.array(renormalize_loop(raw)))
        assert fiber.fiber_residual(a[i], b[i], np.array(raw)) == 0.0
    raw = _planar_product(_planar_product(a, b), dagger(_planar_product(b, a)))
    comm = fiber.commutator(a, b)
    assert np.array_equal(comm, renormalize(raw))
    assert not fiber.fiber_residual(a, b, raw).any()
    for i in range(rows):
        assert np.array_equal(comm[i], fiber.commutator(a[i : i + 1], b[i : i + 1])[0])


def test_unitarity_defect_reads_the_column_gram():
    """unitarity_defect reads u^H u - Id, the Gram defect that renormalize
    bounds, and not u u^H - Id: on u = V (Id + 1e-10 K), with Haar V and
    K = e01 + e10, the columns are 2.0e-10 off orthonormal, the rows
    1.44e-10 and the determinant 2.5e-16 off 1.  A lone matrix, a 1-row stack
    and a stack that holds it all read the column defect."""
    v = haar_random(make_rng(34))
    k = np.zeros((3, 3))
    k[0, 1] = k[1, 0] = 1.0
    u = v @ (IDENTITY + 1e-10 * k)
    want = np.abs(gram_defect_matmul(u)).max()
    assert want == pytest.approx(2e-10, rel=1e-6)
    assert np.abs(u @ dagger(u) - IDENTITY).max() < 1.5e-10
    assert abs(np.linalg.det(u) - 1.0) < 1e-15
    for m in (u, u[None], np.stack([v, u, v])):
        assert abs(unitarity_defect(m) - want) <= 1e-15


@pytest.mark.parametrize("rows", [0, 1, 1000])
@pytest.mark.parametrize("defect", [1e-14, 1e-4])
def test_planar_gram_is_hermitian_and_matches_matmul(rows, defect):
    """The planar Gram defect matches u^H u - Id by matmul and is exactly
    Hermitian: its lower entries are the conjugates of its upper ones, bit
    for bit, and its diagonal is real."""
    u = drifted(make_rng(24), defect, rows)
    gram = _gram_defect_planes(_plane_major(u))
    assert is_plane_major(gram)
    assert np.abs(gram - gram_defect_matmul(u)).max(initial=0.0) <= PLANAR_TOL
    assert np.array_equal(gram, np.conjugate(gram.swapaxes(1, 2)))
    for i in range(3):
        assert not gram[:, i, i].imag.any()
