"""Reference kernels and helpers for tests: the spectral exponential and SVD
polar renormalization that the closed-form kernels in su3lab.su3 replaced,
the per-letter table draw that su3lab.mcg.random_word_indices replaced,
the complex Schur eigenframe that the eigenvector QR in
su3lab.su3.unitary_eigensystem replaced, the matmul and numpy-scalar
formulation of the single-pair word path (apply_word, renormalize, the
cofactor determinant and dagger) that the entry kernels in su3lab.su3
replaced, and plain nested loops over Python complex numbers that give
those kernels' bits from independent code (apply_word, renormalize and
the fiber residual on one pair), the four-mask gather-matmul-scatter word-stack engine
that the planar su3lab.mcg.apply_word_stack replaced, the masked
gather-matmul-scatter flow step and walk that the planar su3lab.flows
engine replaced, the whole-stack select-based planar flow step and walk
that its curve-sorted workspace engine replaced, with the planar
exponential as that step ran it, the two-einsum
adjoint matrix and the full-grid integer-relation search that the
one-GEMM su3lab.su3.adjoint_matrix and the half-grid, one-block-per-m1
su3lab.traces.angles_have_relation replaced, that one-GEMM adjoint
matrix, which the root-block su3lab.su3.adjoint_matrix replaced, the SVD on every matrix that
the Gram-Cholesky full-rank check in su3lab.fiber.d_kappa_rank and
su3lab.fiber.centralizer_intersection spares, that check as LAPACK's
Cholesky on one floored Gram matrix at a time, the LAPACK angles and full
grid on every element that the closed-form screen in
su3lab.traces.is_generic spares, the matmul character values,
fiber residual and Gram defect that the planar ones in su3lab.traces,
su3lab.fiber and su3lab.su3 replaced, with the stacked trace they took,
real coordinates on the algebra in su3lab.su3.ALGEBRA_BASIS with a
Gaussian sampler over them, and the holonomy matrix of each named curve.

Plain LAPACK formulations with no branches and a plain table loop, kept
only for the tests to check the package against; nothing in the package
imports them.  The single-pair word path is the exception: it keeps the
package's branches, because the package must match it bit for bit.
"""

import functools
import operator

import numpy as np
import scipy.linalg

from su3lab.fiber import _FULL_RANK_FLOOR, NULLSPACE_TOL, RANK_TOL
from su3lab.flows import TWIST_TIME_BOUND, variation
from su3lab.mcg import WORD_RENORM_CADENCE
from su3lab.traces import GENERICITY_HEIGHT, GENERICITY_TOL
from su3lab.errors import InvalidAlgebraError
from su3lab.su3 import (
    ALGEBRA_BASIS,
    EXP_MAX_C1,
    EXP_SQUARING_C1,
    IDENTITY,
    REGULARITY_GAP,
    RENORM_CADENCE,
    RENORM_GUARD,
    _check_finite,
    _check_layout,
    _exp_coefficients,
    _pair_stacks,
    _planar_product,
    _plane_major,
    angle_gap,
    assert_algebra_element,
    dagger,
    eigenvalue_angles,
    renormalize,
)


def exp_algebra_eigh(x: np.ndarray) -> np.ndarray:
    """exp(x) as V diag(exp(i w)) V^H from the eigensystem of -i x."""
    x = np.asarray(x, dtype=complex)
    assert_algebra_element(x)
    w, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * w)[..., None, :]) @ dagger(v)


def renormalize_svd(u: np.ndarray) -> np.ndarray:
    """Unitary polar factor by SVD, determinant phase divided out of the
    first column; no drift guard."""
    u = np.asarray(u, dtype=complex)
    w, _, vh = np.linalg.svd(u)
    q = w @ vh
    det = np.linalg.det(q)
    q[..., :, 0] /= det[..., None] if q.ndim > 2 else det
    return q


def unitary_eigensystem_schur(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles (turns, sorted ascending) and the complex Schur frame of one
    unitary matrix, its columns in the same order."""
    t, z = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    angles = np.mod(np.angle(np.diagonal(t)) / (2 * np.pi), 1.0)
    order = np.argsort(angles, kind="stable")
    return angles[order], z[:, order]


# Letter indices over su3lab.mcg.LETTERS: LETTERS[INVERSE_INDEX[i]] is the
# inverse of LETTERS[i].
INVERSE_INDEX = np.array([1, 0, 3, 2])

# ALLOWED_NEXT[i] lists the three letter indices that may follow letter i
# without an immediate cancellation.
ALLOWED_NEXT = np.array(
    [[j for j in range(4) if j != INVERSE_INDEX[i]] for i in range(4)]
)


def random_word_indices_loop(
    count: int, length: int, rng: np.random.Generator
) -> np.ndarray:
    """Random word letter indices drawn one letter position at a time."""
    out = np.empty((count, max(length, 0)), dtype=np.int8)
    if length <= 0:
        return out
    out[:, 0] = rng.integers(4, size=count)
    for j in range(1, length):
        out[:, j] = ALLOWED_NEXT[out[:, j - 1], rng.integers(3, size=count)]
    return out


def algebra_coords(x: np.ndarray) -> np.ndarray:
    """Real coordinates of algebra elements in ALGEBRA_BASIS; accepts stacks."""
    return -np.real(np.einsum("...ab,kba->...k", np.asarray(x, complex), ALGEBRA_BASIS))


def algebra_from_coords(v: np.ndarray) -> np.ndarray:
    """Inverse of algebra_coords."""
    return np.einsum("...k,kab->...ab", np.asarray(v, float), ALGEBRA_BASIS)


def random_algebra(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Gaussian random algebra element(s) with standard normal coordinates."""
    shape = (8,) if size is None else (size, 8)
    return algebra_from_coords(rng.standard_normal(shape))


def curve_holonomy(a: np.ndarray, b: np.ndarray, curve: str) -> np.ndarray:
    """The matrix whose trace is the named flowable curve's observable."""
    holonomy = {
        "alpha": a,
        "beta": b,
        "alpha_beta": a @ b,
        "alpha_beta_inv": a @ dagger(b),
    }
    return holonomy[curve]


def dagger_conjugate(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose as np.conjugate of the swapped-axes view."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def det3_numpy(m: np.ndarray) -> np.ndarray:
    """Cofactor determinant of one 3x3 matrix on numpy complex scalars."""
    (a, b, c), (d, e, f), (g, h, i) = m.T
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)).T


def renormalize_matmul(u: np.ndarray) -> np.ndarray:
    """One matrix onto SU(3) by matmul: Newton-Schulz steps while the Gram
    defect is above RENORM_GUARD, where renormalize refuses the input
    instead, one more step, then the numpy-scalar determinant divided out
    of the first column; no drift guard.  On the inputs renormalize takes,
    this is its one step."""
    u = np.asarray(u, dtype=complex)
    gram = dagger_conjugate(u) @ u
    while np.abs(gram - IDENTITY).max() > RENORM_GUARD:
        u = u @ (1.5 * IDENTITY - 0.5 * gram)
        gram = dagger_conjugate(u) @ u
    q = u @ (1.5 * IDENTITY - 0.5 * gram)
    q[:, 0] /= det3_numpy(q)
    return q


def apply_word_matmul(letters, a: np.ndarray, b: np.ndarray):
    """A word's letters applied to one pair by matmul, renormalizing with
    renormalize_matmul every WORD_RENORM_CADENCE letters; returns (a, b)."""
    for i, letter in enumerate(letters):
        if letter == "a":
            b = b @ a
        elif letter == "A":
            b = b @ dagger_conjugate(a)
        elif letter == "b":
            a = a @ b
        else:
            a = a @ dagger_conjugate(b)
        if (i + 1) % WORD_RENORM_CADENCE == 0:
            a = renormalize_matmul(a)
            b = renormalize_matmul(b)
    return a, b


def add_left_to_right(terms):
    """((t0 + t1) + t2) + ...: the builtin sum adds floats with
    compensation from Python 3.12 on, so it is not used here."""
    return functools.reduce(operator.add, terms)


def entries_loop(m: np.ndarray) -> list[list[complex]]:
    """One 3x3 matrix as nested lists of Python complex numbers."""
    return [[complex(m[i, j]) for j in range(3)] for i in range(3)]


def product_loop(x, y, conjugate_transpose: bool = False):
    """x y, or x y^H, on nested lists: each entry sum_j x_ij y_jk added
    left to right."""
    if conjugate_transpose:
        y = [[y[k][j].conjugate() for k in range(3)] for j in range(3)]
    return [
        [add_left_to_right([x[i][j] * y[j][k] for j in range(3)]) for k in range(3)]
        for i in range(3)
    ]


def det_loop(m) -> complex:
    """Cofactor expansion along the first row, each 2x2 minor the left
    operand, the signed terms added left to right."""
    det = None
    for j in range(3):
        k, l = [c for c in range(3) if c != j]
        term = (m[1][k] * m[2][l] - m[1][l] * m[2][k]) * m[0][j]
        det = term if det is None else det - term if j % 2 else det + term
    return det


def renormalize_loop(m):
    """One Newton-Schulz step on nested lists, with u^H u - Id built as the
    planar kernel builds it: the entries above the diagonal are summed,
    those below are their conjugates, and the diagonal is the squared
    column norms minus 1; then the determinant divided out of the first
    column.  No drift guard."""
    gram = [[0j] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            gram[i][j] = add_left_to_right([m[k][i].conjugate() * m[k][j] for k in range(3)])
            gram[j][i] = gram[i][j].conjugate()
        norms = [m[k][i].real * m[k][i].real + m[k][i].imag * m[k][i].imag for k in range(3)]
        gram[i][i] = add_left_to_right(norms) - 1.0
    factor = [
        [1.0 - 0.5 * gram[i][j] if i == j else -0.5 * gram[i][j] for j in range(3)]
        for i in range(3)
    ]
    q = product_loop(m, factor)
    det = det_loop(q)
    for i in range(3):
        q[i][0] /= det
    return q


def apply_word_loop(letters, a: np.ndarray, b: np.ndarray):
    """A word's letters applied to one pair on nested lists, renormalizing
    with renormalize_loop every WORD_RENORM_CADENCE letters; returns (a, b)
    as arrays."""
    a, b = entries_loop(a), entries_loop(b)
    for i, letter in enumerate(letters):
        if letter in "aA":
            b = product_loop(b, a, conjugate_transpose=letter == "A")
        else:
            a = product_loop(a, b, conjugate_transpose=letter == "B")
        if (i + 1) % WORD_RENORM_CADENCE == 0:
            a = renormalize_loop(a)
            b = renormalize_loop(b)
    return np.array(a), np.array(b)


def fiber_residual_loop(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """max |a b (b a)^H - c| for one pair: the products on nested lists,
    the distance from c by numpy, as fiber_residual takes it."""
    a, b = entries_loop(a), entries_loop(b)
    comm = product_loop(product_loop(a, b), product_loop(b, a), conjugate_transpose=True)
    return np.abs(np.array(comm) - c).max()


def apply_word_stack_matmul(
    indices: np.ndarray, a: np.ndarray, b: np.ndarray, renormalize
):
    """Per-row letter index sequences applied to stacked pairs by four
    masked gather-matmul-scatter updates per letter, renormalizing both
    stacks with the given function every WORD_RENORM_CADENCE letters;
    returns (a, b)."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    for j in range(indices.shape[1]):
        col = indices[:, j]
        m0, m1, m2, m3 = (col == k for k in range(4))
        b[m0] = b[m0] @ a[m0]
        b[m1] = b[m1] @ dagger(a[m1])
        a[m2] = a[m2] @ b[m2]
        a[m3] = a[m3] @ dagger(b[m3])
        if (j + 1) % WORD_RENORM_CADENCE == 0:
            a = renormalize(a)
            b = renormalize(b)
    return a, b


def flow_step_matmul(
    a: np.ndarray,
    b: np.ndarray,
    curve: np.ndarray,
    part_im: np.ndarray,
    t: np.ndarray,
) -> None:
    """One flow step on stacked pairs in place: x gathered per curve, the
    variation as (x - x^H)/2 less its trace part, exp_algebra_eigh, and one
    masked matmul update per moved element (the alpha_beta update of a
    first, as it reads the pre-step b)."""
    m_ab = curve == 2
    m_abinv = curve == 3
    ab = a[m_ab] @ b[m_ab]
    x = np.where((curve == 0)[:, None, None], a, b)
    x[m_ab] = ab
    x[m_abinv] = a[m_abinv] @ dagger(b[m_abinv])
    x = np.where(part_im[:, None, None], -1j * x, x)
    f = (x - dagger(x)) / 2
    f -= (np.trace(f, axis1=-2, axis2=-1) / 3)[:, None, None] * IDENTITY
    z = exp_algebra_eigh(t[:, None, None] * f)
    a[m_ab] = ab @ dagger(z[m_ab]) @ dagger(b[m_ab])
    m_a = (curve == 1) | m_abinv
    a[m_a] = a[m_a] @ z[m_a]
    m_b = curve != 1
    b[m_b] = b[m_b] @ z[m_b]


def flow_walk_matmul(
    a: np.ndarray, b: np.ndarray, steps: int, rng: np.random.Generator
):
    """flow_walk_stack's draws over flow_step_matmul, renormalizing both
    stacks with renormalize_svd every RENORM_CADENCE steps; returns (a, b)."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    for step in range(steps):
        curve = rng.integers(4, size=n)
        part_im = rng.integers(2, size=n).astype(bool)
        t = rng.uniform(-TWIST_TIME_BOUND, TWIST_TIME_BOUND, size=n)
        flow_step_matmul(a, b, curve, part_im, t)
        if (step + 1) % RENORM_CADENCE == 0:
            a = renormalize_svd(a)
            b = renormalize_svd(b)
    return a, b


def exp_algebra_select(x: np.ndarray) -> np.ndarray:
    """exp_algebra as the select step called it, each stack's result in a
    new stack and c0 summed by numpy over the fresh product planes of
    x_ij (x^2)_ji; the package's check and coefficients."""
    x = np.asarray(x, dtype=complex)
    assert_algebra_element(x)
    return exp_planes_select(_plane_major(x)).reshape(x.shape)


def exp_planes_select(x: np.ndarray) -> np.ndarray:
    """exp_algebra_select on an (n, 3, 3) plane-major stack."""
    p = x.transpose(1, 2, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _planar_product(x, x).transpose(1, 2, 0)
        c1 = (out[0, 0].real + out[1, 1].real + out[2, 2].real) * -0.5
        c0 = (p * out.transpose(1, 0, 2)).sum(axis=(0, 1)).imag / -3.0
    if not (c1 <= EXP_MAX_C1).all():
        raise InvalidAlgebraError(f"c1 above {EXP_MAX_C1:.0e}")
    f0, f1, f2 = _exp_coefficients(c0, c1)
    out *= -f2
    i_f1 = 1j * f1
    for i in range(3):
        out[i] -= p[i] * i_f1
        out[i, i] += f0
    squaring = c1 > EXP_SQUARING_C1
    if squaring.any():
        half = exp_planes_select(_plane_major(x[squaring] / 2))
        out[:, :, squaring] = _planar_product(half, half).transpose(1, 2, 0)
    return out.transpose(2, 0, 1)


def flow_step_select(
    a: np.ndarray,
    b: np.ndarray,
    curve: np.ndarray,
    part_im: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Flow each row of the plane-major stacks a and b along its observable.

    curve holds indices into CURVES, part_im selects the imaginary trace
    part, t the flow time; all three have one entry per row.  Returns new
    stacks (a, b); a and b are not written.  The select step verbatim,
    with its exponential frozen as exp_algebra_select.
    """
    curve, part_im, t = (v[:, None, None] for v in (curve, part_im, t))
    x = np.where(curve == 0, a, b)
    on_product = curve >= 2
    if on_product.any():
        # u = a b on alpha_beta rows and a b^H on alpha_beta_inv rows: one
        # planar product for both.
        u = _planar_product(a, np.where(curve == 3, dagger(b), b))
        x = np.where(on_product, u, x)
    # Im Tr x = Re Tr(-i x); x is this step's own array.
    x *= np.where(part_im, -1j, 1.0)
    f = variation(x)
    f *= t
    z = exp_algebra_select(f)

    # The table in the module docstring.  On alpha_beta rows a = u v^-1
    # with u = a b and v = b z, so a reads the pre-step b through bz.
    bz = _planar_product(b, z)
    az = _planar_product(a, z)
    new_a = np.where((curve == 1) | (curve == 3), az, a)
    m_ab = curve == 2
    if m_ab.any():
        a_ab = _planar_product(u, dagger(bz))
        new_a = np.where(m_ab, a_ab, new_a)
    return new_a, np.where(curve != 1, bz, b)


def flow_walk_select(a: np.ndarray, b: np.ndarray, draws):
    """flow_step_select through each (curve, part_im, t) of draws, with
    the package's renormalize on both stacks every RENORM_CADENCE steps,
    as the select-based flow_walk_stack ran them; a and b are taken
    through _pair_stacks, as that walk did.  Returns (a, b)."""
    a, b = _pair_stacks(a, b)
    for step, (curve, part_im, t) in enumerate(draws):
        a, b = flow_step_select(a, b, curve, part_im, t)
        if (step + 1) % RENORM_CADENCE == 0:
            a = renormalize(a)
            b = renormalize(b)
    return a, b


def adjoint_matrix_einsum(g: np.ndarray) -> np.ndarray:
    """The 8x8 matrix of conjugation by g in ALGEBRA_BASIS, as the two
    three-operand einsums -Re Tr(g E_k g^H E_j); accepts stacks."""
    g = np.asarray(g, dtype=complex)
    conj = np.einsum("...ab,kbc,...dc->...kad", g, ALGEBRA_BASIS, np.conjugate(g))
    return -np.real(np.einsum("...kab,jba->...jk", conj, ALGEBRA_BASIS))


@functools.cache
def _adjoint_gemm() -> np.ndarray:
    """The read-only (162, 64) real matrix W of adjoint_matrix_gemm's one
    product, built on first use: built at import, it raised the peak
    memory of runs that never call adjoint_matrix by 0.1-0.2 MB.

    Entry (j, k) of Ad(g) is -Re Tr(g E_k g^H E_j) = -Re sum C[r] K[r] over
    the 81 products K[27a + 9b + 3d + c] = g[a, b] conj(g[d, c]), the outer
    product of g's row-major entries with their conjugates, with
    C[27a + 9b + 3d + c] = E_j[d, a] E_k[b, c].  Read as reals, K's entry
    r is the pair (Re K, Im K), and -Re(C K) = -Re C Re K + Im C Im K: so
    W's rows are -Re C and Im C interleaved, and its column 8 j + k is
    entry (j, k).
    """
    coeff = np.einsum("jda,kbc->abdcjk", ALGEBRA_BASIS, ALGEBRA_BASIS).reshape(81, 64)
    w = np.stack([-coeff.real, coeff.imag], axis=1).reshape(162, 64)
    w.setflags(write=False)
    return w


def adjoint_matrix_gemm(g: np.ndarray) -> np.ndarray:
    """The 8x8 real matrix of conjugation by g in ALGEBRA_BASIS, as the
    one-GEMM su3lab.su3.adjoint_matrix of 0.8.0 computed it, bit for bit.

    Entry (j, k) is -Re Tr(g E_k g^H E_j), linear in the 81 products
    g[a, b] conj(g[d, c]): so the stack's (n, 9, 9) outer products of its
    nine row-major entries with their conjugates, written into one
    row-major buffer and read as (n, 162) reals, times the fixed
    (162, 64) matrix _adjoint_gemm() give all n matrices in one real
    matrix product.  Orthogonal, because conjugation preserves the
    pairing.  Accepts stacks of any layout (returns ...x8x8, C-ordered);
    a NaN or inf entry is refused with InvalidGroupElementError, before
    numpy can warn.
    """
    g = np.asarray(g, dtype=complex)
    _check_layout(g)
    _check_finite(g)
    # A copy unless g's matrices are row-major already; the products are
    # written row-major whatever g's layout, so that their rows read as reals.
    flat = g.reshape(-1, 9)
    kron = np.empty((len(flat), 9, 9), dtype=complex)
    np.multiply(flat[:, :, None], np.conjugate(flat)[:, None, :], out=kron)
    adj = kron.reshape(-1, 81).view(np.float64) @ _adjoint_gemm()
    return adj.reshape(g.shape[:-2] + (8, 8))


def full_rank_cholesky(m: np.ndarray) -> np.ndarray:
    """Per matrix of an (n, p, q) stack, whether it is finite and LAPACK's
    Cholesky factors its smaller Gram matrix less _FULL_RANK_FLOOR
    max(1, |m|_F^2) Id, one np.linalg.cholesky call per matrix."""
    flags = []
    for x in m:
        if not np.isfinite(x).all():
            flags.append(False)
            continue
        gram = x @ x.T if x.shape[0] <= x.shape[1] else x.T @ x
        floor = _FULL_RANK_FLOOR * max(np.trace(gram), 1.0)
        try:
            np.linalg.cholesky(gram - floor * np.eye(len(gram)))
        except np.linalg.LinAlgError:
            flags.append(False)
        else:
            flags.append(True)
    return np.array(flags, dtype=bool)


def d_kappa_rank_svd(m: np.ndarray) -> np.ndarray:
    """Singular values above RANK_TOL max(s_0, 1), counted by one SVD of
    every matrix; accepts stacks."""
    s = np.linalg.svd(m, compute_uv=False)
    top = np.maximum(s[..., 0], 1.0)
    return np.sum(s > RANK_TOL * top[..., None], axis=-1)


def centralizer_intersection_svd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """8 less the singular values above NULLSPACE_TOL of the stacked
    [Ad(a) - Id; Ad(b) - Id], from the einsum adjoint and one SVD of every
    matrix; accepts stacks."""
    eye = np.eye(8)
    stacked = np.concatenate(
        [adjoint_matrix_einsum(a) - eye, adjoint_matrix_einsum(b) - eye], axis=-2
    )
    s = np.linalg.svd(stacked, compute_uv=False)
    return 8 - np.sum(s > NULLSPACE_TOL, axis=-1)


def angles_have_relation_grid(angles: np.ndarray) -> np.ndarray:
    """Integer relations |m1 th1 + m2 th2 + m0| <= GENERICITY_TOL with
    entries bounded by GENERICITY_HEIGHT, searched over the whole
    (2 GENERICITY_HEIGHT + 1)^2 grid of (m1, m2) at once; accepts stacked
    angle triples."""
    angles = np.asarray(angles, dtype=float)
    m = np.arange(-GENERICITY_HEIGHT, GENERICITY_HEIGHT + 1)
    m1 = np.repeat(m, m.size)
    m2 = np.tile(m, m.size)
    combo = np.tensordot(angles[..., 0], m1, axes=0) + np.tensordot(
        angles[..., 1], m2, axes=0
    )
    m0 = -np.round(combo)
    hit = (np.abs(combo + m0) <= GENERICITY_TOL) & (np.abs(m0) <= GENERICITY_HEIGHT)
    hit &= ~((m1 == 0) & (m2 == 0) & (m0 == 0))
    return hit.any(axis=-1)


def is_generic_lapack(u: np.ndarray) -> np.ndarray:
    """is_generic from eigenvalue_angles (LAPACK eigvals), angle_gap and the
    full-grid relation search on every element; accepts stacks."""
    angles = eigenvalue_angles(u)
    return (angle_gap(angles) >= REGULARITY_GAP) & ~angles_have_relation_grid(angles)


def trace(m: np.ndarray) -> np.ndarray:
    """Trace over the last two axes."""
    return np.trace(m, axis1=-2, axis2=-1)


def character_values_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The nine character coordinates, (..., 9), by matmul and np.trace,
    with a and b broadcast against each other first."""
    a, b = np.broadcast_arrays(a, b)
    ab = a @ b
    zab_inv = trace(a @ dagger(b))
    za, zb, zab, zc = trace(a), trace(b), trace(ab), trace(ab @ dagger(b @ a))
    first = [za, zb, zab, zab_inv]
    return np.stack(first + [zc] + [np.conjugate(z) for z in first], axis=-1)


def fiber_residual_matmul(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """max |a b a^H b^H - c| over each matrix, by matmul."""
    return np.abs(a @ b @ dagger(b @ a) - c).max(axis=(-2, -1))


def gram_defect_matmul(u: np.ndarray) -> np.ndarray:
    """u^H u - Id by matmul, over the last two axes."""
    return dagger(u) @ u - IDENTITY
