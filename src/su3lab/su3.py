"""Core linear algebra for the special unitary group SU(3) and its algebra.

Conventions used throughout the package:

- Group elements are 3x3 complex arrays U with dagger(U) @ U = Id and
  det U = 1, both within UNITARITY_TOL.
- Algebra elements are traceless anti-Hermitian 3x3 complex arrays.
- The invariant pairing on the algebra is <X, Y> = Tr(X Y), which is real
  and negative definite; the fixed orthonormal basis ALGEBRA_BASIS is
  normalized so that -<E_j, E_k> is the identity matrix.
- Eigenvalue angles of unitary matrices are measured in turns (fractions of
  a full rotation), stored sorted in [0, 1); for a special unitary matrix
  they sum to an integer.

Unless a docstring says otherwise, functions accept stacked inputs with
leading batch dimensions; the orbit engines elsewhere in the package rely on
this to drive thousands of trajectories in lockstep.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    DriftExplosionError,
    InvalidAlgebraError,
    InvalidGroupElementError,
    NonRegularElementError,
)

UNITARITY_TOL = 1e-9
ALGEBRA_TOL = 1e-9

# Minimal pairwise eigenvalue-angle gap (circle distance in turns) below
# which an element is treated as non-regular: under this the centralizer
# dimension is numerically ambiguous.
REGULARITY_GAP = 1e-8

# Long orbit engines project back onto the group every this many products.
RENORM_CADENCE = 64

# renormalize refuses inputs whose Gram defect d = max |u^H u - Id| is
# above this.  Products of exact starts reach it with d below 1e-12.  A
# RepPoint bounds d by UNITARITY_TOL (unitarity_defect): each factor then
# has singular values with |s^2 - 1| <= (1 + sqrt 3) UNITARITY_TOL, and 8
# letters multiply at most F(10) = 55 factors, so d <= 1.5e-7 to first order.
RENORM_GUARD = 2e-7

# Below this c1 = tr(Q^2)/2 exp_algebra sums its Taylor series: there the
# closed form's f2 carries an error of about eps/c1, while _EXP_TAYLOR_TERMS
# terms already reach roundoff (eigenvalues of Q are at most 2 sqrt(c1/3)).
EXP_TAYLOR_C1 = 1e-3
_EXP_TAYLOR_TERMS = 8

# Above this c1 exp_algebra returns exp(x/2)^2.  Near repeated eigenvalues
# theta = arccos(ratio)/3 carries an error of about sqrt(eps), which puts
# an error of about eps c1 on the closed form: at spectrum (7, 7, -14),
# c1 = 147, 2 % of stacks of eight missed 1e-13 in det.  The flows never
# take this branch, so their bytes do not depend on it: the variation of a
# unitary element has eigenvalues sin(phi_k) minus their mean, so
# c1 <= 4/3 t^2 <= 16 pi^2 / 3 = 52.6 for flow times
# |t| <= TWIST_TIME_BOUND = 2 pi.
EXP_SQUARING_C1 = 64.0

# exp_algebra refuses c1 above this.  Each squaring doubles the error it
# squares, so the unitarity defect grows like eps sqrt(c1 / EXP_SQUARING_C1):
# over 2000 Gaussian and near-degenerate elements it was at most 2.7e-10 at
# c1 = 1e11 but 1.3e-9, above UNITARITY_TOL, at 1e12; c1 = 7.5e20 gave a
# matrix 8.6e-7 off the group and 7.5e100 gave NaN.
EXP_MAX_C1 = 1e11

# sin(w)/w switches to its series below this w; the truncation error of the
# four-term series there is at most w^8/9! = 1.1e-16.
_SINC_SERIES_W = 0.05

_SQRT3 = float(np.sqrt(3.0))

IDENTITY = np.eye(3, dtype=complex)
OMEGA = np.exp(2j * np.pi / 3)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.swapaxes(-1, -2).conj()


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of u^H u from Id, the Gram defect that
    renormalize bounds, plus |det u - 1|, maximized over any batch (0 when
    empty, NaN or inf for a non-finite or overflowing entry)."""
    u = np.asarray(u, dtype=complex)
    _check_layout(u)
    if u.ndim == 2:
        e = _entries(u)
        # A NaN Gram defect is max's first argument, so it is kept.
        return max(_gram_defect3(e)[1], abs(_det3((e[:3], e[3:6], e[6:])) - 1.0))
    # The callers refuse the NaN or inf of a non-finite or overflowing
    # entry; numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        u = _plane_major(u)
        gram = np.abs(_gram_defect_planes(u)).max(initial=0.0)
        det = np.abs(_det3(u.transpose(1, 2, 0)) - 1.0).max(initial=0.0)
    return float(max(gram, det))


def assert_special_unitary(u: np.ndarray) -> None:
    defect = unitarity_defect(u)
    # Written as `not <=` so that a NaN defect is refused too.
    if not defect <= UNITARITY_TOL:
        raise InvalidGroupElementError(
            f"matrix is {defect:.3e} away from the special unitary group"
            f" (tolerance {UNITARITY_TOL:.1e})"
        )


def algebra_defect(x: np.ndarray) -> float:
    """Largest deviation from being traceless anti-Hermitian, over any batch
    (0 when empty, NaN when an entry is NaN or inf)."""
    x = np.asarray(x, dtype=complex)
    _check_layout(x, error=InvalidAlgebraError)
    # An inf entry makes inf - inf; the NaN is refused by the callers, so
    # numpy need not warn about it first.
    with np.errstate(invalid="ignore"):
        herm = np.abs(x + dagger(x)).max(initial=0.0)
        tr = np.abs(x[..., 0, 0] + x[..., 1, 1] + x[..., 2, 2]).max(initial=0.0)
    return float(max(herm, tr))


def assert_algebra_element(x: np.ndarray) -> None:
    defect = algebra_defect(x)
    # Written as `not <=` so that a NaN defect is refused too.
    if not defect <= ALGEBRA_TOL:
        raise InvalidAlgebraError(
            f"matrix is {defect:.3e} away from the traceless anti-Hermitian"
            f" algebra (tolerance {ALGEBRA_TOL:.1e})"
        )


def exp_algebra(x: np.ndarray) -> np.ndarray:
    """Exponential of a traceless anti-Hermitian matrix, landing in SU(3).

    Closed form by the Cayley-Hamilton theorem (Morningstar and Peardon,
    "Analytic smearing of SU(3) link variables", Phys. Rev. D 69 (2004)
    054501, hep-lat/0311018).  With Q = -i x Hermitian and traceless,
    Q^3 = c1 Q + c0 Id for c0 = det Q and c1 = tr(Q^2)/2, so
    exp(x) = f0 Id + f1 Q + f2 Q^2 exactly.  The f_j are trigonometric in
    the eigenvalue parameters (u, w) of Q, found from c0 and c1 without an
    eigensolver.  Four cases keep them accurate:

    - c0 < 0 uses the symmetry Q -> -Q (u -> -u), so the divisor
      9u^2 - w^2 stays at least 2 c1;
    - near w = 0 (two equal eigenvalues) sin(w)/w is summed as a series;
    - for c1 < EXP_TAYLOR_C1 (near x = 0), where the divided form loses
      about eps/c1 in f2, the f_j come from the exponential's Taylor
      series reduced by Q^3 = c1 Q + c0 Id instead;
    - for c1 > EXP_SQUARING_C1, where the form loses about eps c1 near
      repeated eigenvalues, the result is exp_algebra(x/2) squared.

    The result is a polynomial in x, so it commutes with x by
    construction.  Raises InvalidAlgebraError for inputs off the algebra,
    NaN and inf entries included, for inputs whose last two axes are not
    (3, 3), and for c1 above EXP_MAX_C1, where the squarings would carry
    the result off the group.  Accepts stacks, and returns a new
    plane-major stack (a lone matrix runs as a stack of one).
    """
    x = np.asarray(x, dtype=complex)
    assert_algebra_element(x)
    return _exp_planes(_plane_major(x)).reshape(x.shape)


def _exp_planes(x: np.ndarray) -> np.ndarray:
    """exp_algebra on an (n, 3, 3) stack, run on its planes: x^2 is one
    planar product, c1 and c0 come from the diagonals of x^2 and x^3, and
    the f_j multiply the planes row by row.  Returns a new stack laid out
    like x; x is not written."""
    p = x.transpose(1, 2, 0)
    # An element too large for the c1 refusal below overflows x^2 into inf
    # and c0 into NaN; the refusal covers both, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _planar_product(x, x).transpose(1, 2, 0)
        # With Q = -i x: c1 = tr(Q^2)/2 = -tr(x^2)/2 and c0 = det Q =
        # tr(Q^3)/3 = i tr(x^3)/3, where tr(x^3) = sum_ij x_ij (x^2)_ji.
        c1 = (out[0, 0].real + out[1, 1].real + out[2, 2].real) * -0.5
        c0 = (p * out.transpose(1, 0, 2)).sum(axis=(0, 1)).imag / -3.0
    # Written as `not <=` so that a NaN c1 is refused too.
    if not (c1 <= EXP_MAX_C1).all():
        raise InvalidAlgebraError(
            f"exp_algebra needs c1 = tr(Q^2)/2 at most {EXP_MAX_C1:.0e}, got {c1.max():.3e}"
        )
    f0, f1, f2 = _exp_coefficients(c0, c1)
    # exp(x) = f0 Id + f1 Q + f2 Q^2 with Q = -i x and Q^2 = -x^2, formed
    # over x^2.
    out *= -f2
    i_f1 = 1j * f1
    for i in range(3):
        out[i] -= p[i] * i_f1
        out[i, i] += f0
    squaring = c1 > EXP_SQUARING_C1
    if squaring.any():
        half = _exp_planes(_plane_major(x[squaring] / 2))
        out[:, :, squaring] = _planar_product(half, half).transpose(1, 2, 0)
    return out.transpose(2, 0, 1)


def _exp_coefficients(c0: np.ndarray, c1: np.ndarray):
    """The f_j of exp(i Q) = f0 + f1 Q + f2 Q^2 from c0 = det Q, c1 = tr(Q^2)/2."""
    taylor = c1 < EXP_TAYLOR_C1
    any_taylor = bool(taylor.any())
    if any_taylor:
        # Placeholder values keep the closed form finite on the rows that
        # the series overwrites below.
        small_c0, small_c1 = c0[taylor], c1[taylor]
        c1 = np.where(taylor, 1.0, c1)
    # Trigonometric eigenvalue parameters: the eigenvalues of Q are 2u and
    # -u +- w.  Taking theta from |c0| keeps theta/3 in [0, pi/6]; the sign
    # of c0 then goes to u, because Q -> -Q maps (u, w) to (-u, w).
    sqrt_c1 = np.sqrt(c1)
    # |c0| over its largest value 2 (c1/3)^(3/2).
    ratio = np.abs(c0) * (1.5 * _SQRT3) / (c1 * sqrt_c1)
    theta = np.arccos(np.minimum(ratio, 1.0)) / 3.0
    u = np.copysign(sqrt_c1 * np.cos(theta) / _SQRT3, c0)
    w = sqrt_c1 * np.sin(theta)
    xi0 = np.sin(w)
    big = w >= _SINC_SERIES_W
    np.divide(xi0, w, out=xi0, where=big)
    if not big.all():
        w2 = w[~big] ** 2
        xi0[~big] = 1.0 - w2 / 6.0 * (1.0 - w2 / 20.0 * (1.0 - w2 / 42.0))
    u2 = u * u
    w2 = w * w
    e2 = np.exp(2j * u)
    em = np.exp(-1j * u)
    em_cos = em * np.cos(w)
    em_xi = em * xi0
    inv = 1.0 / (9.0 * u2 - w2)
    f0 = ((u2 - w2) * e2 + 8.0 * u2 * em_cos + 2j * u * (3.0 * u2 + w2) * em_xi) * inv
    f1 = (2.0 * u * (e2 - em_cos) + 1j * (3.0 * u2 - w2) * em_xi) * inv
    f2 = (e2 - em_cos - 3j * u * em_xi) * inv
    if any_taylor:
        f0[taylor], f1[taylor], f2[taylor] = _exp_taylor(small_c0, small_c1)
    return f0, f1, f2


def _exp_taylor(c0: np.ndarray, c1: np.ndarray):
    """The f_j of exp(i Q) summed as a series, for small c1.

    Writes Q^k = a_k + b_k Q + c_k Q^2 and steps k with Q^3 = c1 Q + c0 Id.
    """
    a = np.ones(c0.shape, dtype=complex)
    b = np.zeros_like(a)
    c = np.zeros_like(a)
    f0, f1, f2 = a.copy(), b.copy(), c.copy()
    term = 1.0 + 0j
    for k in range(1, _EXP_TAYLOR_TERMS + 1):
        a, b, c = c * c0, a + c * c1, b
        term *= 1j / k
        f0 += term * a
        f1 += term * b
        f2 += term * c
    return f0, f1, f2


def _build_algebra_basis() -> np.ndarray:
    """Orthonormal basis of su(3) under the negative of the pairing.

    The eight matrices are i/sqrt(2) times the standard Hermitian basis of
    traceless 3x3 matrices, so -Tr(E_j E_k) = delta_jk.
    """
    lam = np.zeros((8, 3, 3), dtype=complex)
    lam[0, 0, 1] = lam[0, 1, 0] = 1
    lam[1, 0, 1] = -1j
    lam[1, 1, 0] = 1j
    lam[2, 0, 0] = 1
    lam[2, 1, 1] = -1
    lam[3, 0, 2] = lam[3, 2, 0] = 1
    lam[4, 0, 2] = -1j
    lam[4, 2, 0] = 1j
    lam[5, 1, 2] = lam[5, 2, 1] = 1
    lam[6, 1, 2] = -1j
    lam[6, 2, 1] = 1j
    lam[7] = np.diag([1, 1, -2]) / np.sqrt(3)
    return 1j * lam / np.sqrt(2)


ALGEBRA_BASIS = _build_algebra_basis()
ALGEBRA_BASIS.setflags(write=False)


@functools.cache
def _adjoint_gemm() -> np.ndarray:
    """The read-only (162, 64) real matrix W of adjoint_matrix's one
    product, built on first use: built at import, it raised the peak
    memory of runs that never call adjoint_matrix by 0.1-0.2 MB.

    Entry (j, k) of Ad(g) is -Re Tr(g E_k g^H E_j) = -Re sum C[r, c] K[r, c]
    over the Kronecker product K = g (x) conj(g), K[3a + d, 3b + c] =
    g[a, b] conj(g[d, c]), with C[3a + d, 3b + c] = E_j[d, a] E_k[b, c].
    Read as reals, K's r, c entry is the pair (Re K, Im K), and -Re(C K) =
    -Re C Re K + Im C Im K: so W's rows are -Re C and Im C interleaved, and
    its column 8 j + k is entry (j, k).
    """
    coeff = np.einsum("jda,kbc->adbcjk", ALGEBRA_BASIS, ALGEBRA_BASIS).reshape(81, 64)
    w = np.stack([-coeff.real, coeff.imag], axis=1).reshape(162, 64)
    w.setflags(write=False)
    return w


def adjoint_matrix(g: np.ndarray) -> np.ndarray:
    """The 8x8 real matrix of conjugation by g in ALGEBRA_BASIS.

    Entry (j, k) is -Re Tr(g E_k g^H E_j), linear in the 81 entries of the
    Kronecker product g (x) conj(g): so the stack's Kronecker products,
    read as (n, 162) reals, times the fixed (162, 64) matrix
    _adjoint_gemm() give all n matrices in one real matrix product.
    Orthogonal, because conjugation preserves the pairing.  Accepts stacks
    (returns ...x8x8); a NaN or inf entry is refused with
    InvalidGroupElementError, before numpy can warn.
    """
    g = np.asarray(g, dtype=complex)
    _check_layout(g)
    _check_finite(g)
    # Row-major whatever g's layout, so that its rows read as reals.
    kron = np.empty(g.shape[:-2] + (3, 3, 3, 3), dtype=complex)
    np.multiply(g[..., :, None, :, None], np.conjugate(g)[..., None, :, None, :], out=kron)
    adj = kron.reshape(-1, 81).view(np.float64) @ _adjoint_gemm()
    return adj.reshape(g.shape[:-2] + (8, 8))


def haar_random(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed special unitary matrices.

    Complex Gaussian matrix, QR factorization, then the R-diagonal phases
    are pushed into Q to make the factorization canonical; that Q is Haar on
    the unitary group.  The determinant phase is divided out of the first
    column, which commutes with left translation by special unitary matrices
    and therefore lands on Haar measure of SU(3).
    """
    shape = (3, 3) if size is None else (int(size), 3, 3)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    det = np.linalg.det(q)
    q[..., :, 0] /= det[..., None]
    return q


def circle_distance(x: np.ndarray, y: np.ndarray | float = 0.0) -> np.ndarray:
    """Distance between angles in turns, on the unit circle."""
    d = np.mod(np.asarray(x, float) - y, 1.0)
    return np.minimum(d, 1.0 - d)


def eigenvalue_angles(u: np.ndarray) -> np.ndarray:
    """Eigenvalue angles in turns, sorted ascending; accepts stacks.

    Uses the general eigenvalue solver (no eigenvectors), adequate whenever
    only the spectrum is needed; use unitary_eigensystem for a frame.  A
    NaN or inf entry is refused with InvalidGroupElementError.
    """
    u = np.asarray(u, dtype=complex)
    _check_finite(u)
    lam = np.linalg.eigvals(u)
    return np.sort(np.mod(np.angle(lam) / (2 * np.pi), 1.0), axis=-1)


def angle_gap(angles: np.ndarray) -> np.ndarray:
    """Minimal pairwise circle distance within angle triples (last axis)."""
    gaps = [
        circle_distance(angles[..., i], angles[..., j])
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    return np.min(np.stack(gaps, axis=-1), axis=-1)


def unitary_eigensystem(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles (turns, sorted ascending) and orthonormal eigenvectors of one
    unitary matrix.

    LAPACK's zgeev returns eigenvectors V = Z X, with Z T Z^H the Schur
    form of u and X upper triangular.  So the QR factor of V, taken in
    zgeev's order before sorting, is Z up to column phases: exactly
    unitary, and an eigenframe of a normal matrix even at repeated
    eigenvalues, where V need not be orthogonal.  Single matrix only.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise InvalidGroupElementError("unitary_eigensystem takes a single 3x3 matrix")
    lam, v = np.linalg.eig(u)
    z, _ = np.linalg.qr(v)
    angles = np.mod(np.angle(lam) / (2 * np.pi), 1.0)
    order = np.argsort(angles, kind="stable")
    return angles[order], z[:, order]


def torus_frame(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenframe (angles, eigenvectors) of a regular special unitary
    matrix, in the order of unitary_eigensystem.

    The element is eigenvectors @ diag(exp(2 pi i angles)) @ dagger(eigenvectors);
    group elements commuting with it are exactly the ones diagonal in this
    frame, so powers of the element and products with it can be iterated
    exactly on the angles in this frame.  Raises NonRegularElementError when
    the minimal eigenvalue-angle gap is below REGULARITY_GAP.
    """
    a = np.asarray(a, dtype=complex)
    assert_special_unitary(a)
    angles, vectors = unitary_eigensystem(a)
    gap = angle_gap(angles)
    if gap < REGULARITY_GAP:
        raise NonRegularElementError(
            f"eigenvalue-angle gap {gap:.3e} is below the regularity threshold"
        )
    return angles, vectors


def renormalize(u: np.ndarray) -> np.ndarray:
    """Project near-unitary matrices back onto SU(3); accepts stacks.

    The unitary factor of the polar decomposition, then the determinant
    phase divided out of the first column.  Idempotent to roundoff.

    The polar factor is one Newton-Schulz step u (3 Id - u^H u) / 2
    (Higham, "Functions of Matrices", SIAM 2008, ch. 8): it moves each
    singular value s to 1 - (3/8) x^2 for x = s^2 - 1, |x| <= 3 d for the
    Gram defect d = max |u^H u - Id|.  DriftExplosionError is raised when
    d is above RENORM_GUARD or is not finite (a NaN or inf entry), and
    InvalidGroupElementError when the last two axes are not (3, 3).

    A stack runs on planes, as in exp_algebra, and returns a new
    plane-major stack.  A lone matrix runs on its entries as Python complex
    numbers (_renormalize3), with the same formulas, and returns a new
    3x3 array.
    """
    u = np.asarray(u, dtype=complex)
    _check_layout(u)
    if u.ndim > 2:
        return _renormalize_planes(_plane_major(u)).reshape(u.shape)
    return _matrix(_renormalize3(_entries(u)))


def _check_drift(defect) -> None:
    # Written as `not <=` so that a NaN defect is refused too.
    if not defect <= RENORM_GUARD:
        raise DriftExplosionError(
            f"Gram defect {defect:.3e} is beyond RENORM_GUARD = {RENORM_GUARD:.0e};"
            " renormalize takes one Newton-Schulz step, so its input was farther"
            " from SU(3) than a valid pair's products reach"
        )


def _det3(rows):
    """Determinant of a 3x3 matrix from its rows, by cofactor expansion.

    The rows of planes give the determinant of every matrix at once, and
    the three rows of a lone matrix's entries (see _entries) give its
    determinant as a Python complex number.  Each cofactor is the left
    operand: numpy's SIMD complex multiply is not bitwise commutative, and
    this order keeps the planar bits.
    """
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (e * i - f * h) * a - (d * i - f * g) * b + (d * h - e * g) * c


# Lone matrices: the single-pair paths (apply_word, and renormalize,
# unitarity_defect, commutator and fiber_residual on one matrix or pair)
# hold a 3x3 matrix as its row-major 9-tuple of Python complex numbers.
# Arithmetic on them skips numpy's per-call dispatch, which costs about as
# much as the 27 complex products of a 3x3 product: on a shared 2-core
# x86_64 host a _product3 took 1.6-1.9 us against 1.8-2.2 us for numpy's
# zgemm call, and _renormalize3 4-6 us against 10-18 us on zgemm calls.
# Every sum over an index is added left to right, as on the planes.


def _entries(m: np.ndarray) -> tuple:
    """The row-major entries of one 3x3 matrix as Python complex numbers."""
    return tuple(np.asarray(m, dtype=complex).ravel().tolist())


def _matrix(e) -> np.ndarray:
    """A new 3x3 complex array from row-major entries."""
    return np.array(e, dtype=complex).reshape(3, 3)


def _product3(x, y) -> tuple:
    """x y for two lone matrices given by their entries."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = y
    return (
        x0 * y0 + x1 * y3 + x2 * y6,
        x0 * y1 + x1 * y4 + x2 * y7,
        x0 * y2 + x1 * y5 + x2 * y8,
        x3 * y0 + x4 * y3 + x5 * y6,
        x3 * y1 + x4 * y4 + x5 * y7,
        x3 * y2 + x4 * y5 + x5 * y8,
        x6 * y0 + x7 * y3 + x8 * y6,
        x6 * y1 + x7 * y4 + x8 * y7,
        x6 * y2 + x7 * y5 + x8 * y8,
    )


def _product3_dagger(x, y) -> tuple:
    """x y^H for two lone matrices given by their entries."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = y
    z0, z1, z2 = y0.conjugate(), y1.conjugate(), y2.conjugate()
    z3, z4, z5 = y3.conjugate(), y4.conjugate(), y5.conjugate()
    z6, z7, z8 = y6.conjugate(), y7.conjugate(), y8.conjugate()
    return (
        x0 * z0 + x1 * z1 + x2 * z2,
        x0 * z3 + x1 * z4 + x2 * z5,
        x0 * z6 + x1 * z7 + x2 * z8,
        x3 * z0 + x4 * z1 + x5 * z2,
        x3 * z3 + x4 * z4 + x5 * z5,
        x3 * z6 + x4 * z7 + x5 * z8,
        x6 * z0 + x7 * z1 + x8 * z2,
        x6 * z3 + x7 * z4 + x8 * z5,
        x6 * z6 + x7 * z7 + x8 * z8,
    )


def _gram_defect3(u) -> tuple:
    """u^H u - Id on one matrix's entries, with _gram_defect_planes'
    formulas: its six entries (d0, d1, d2, g01, g02, g12) on and above the
    diagonal, and their largest modulus, NaN for a non-finite or
    overflowing entry."""
    u0, u1, u2, u3, u4, u5, u6, u7, u8 = u
    c0, c1, c2 = u0.conjugate(), u1.conjugate(), u2.conjugate()
    c3, c4, c5 = u3.conjugate(), u4.conjugate(), u5.conjugate()
    c6, c7, c8 = u6.conjugate(), u7.conjugate(), u8.conjugate()
    g01 = c0 * u1 + c3 * u4 + c6 * u7
    g02 = c0 * u2 + c3 * u5 + c6 * u8
    g12 = c1 * u2 + c4 * u5 + c7 * u8
    # The real part of conj(z) z is re(z)^2 + im(z)^2, bit for bit.
    d0 = (c0 * u0).real + (c3 * u3).real + (c6 * u6).real - 1.0
    d1 = (c1 * u1).real + (c4 * u4).real + (c7 * u7).real - 1.0
    d2 = (c2 * u2).real + (c5 * u5).real + (c8 * u8).real - 1.0
    gram = (d0, d1, d2, g01, g02, g12)
    # The diagonal sums every squared modulus, so a NaN or inf entry makes
    # its sum NaN or inf; Python's max skips a NaN that is not first.
    if not math.isfinite(d0 + d1 + d2):
        return gram, math.nan
    return gram, max(abs(d0), abs(d1), abs(d2), abs(g01), abs(g02), abs(g12))


def _renormalize3(u) -> tuple:
    """renormalize on one matrix's entries, with _renormalize_planes'
    formulas: _gram_defect3 under _check_drift, one Newton-Schulz step and
    the first column divided by _det3."""
    (d0, d1, d2, g01, g02, g12), defect = _gram_defect3(u)
    _check_drift(defect)
    # (3 Id - u^H u) / 2, written over u^H u - Id.
    f01, f02, f12 = -0.5 * g01, -0.5 * g02, -0.5 * g12
    q0, q1, q2, q3, q4, q5, q6, q7, q8 = _product3(u, (
        1.0 - 0.5 * d0, f01, f02,
        f01.conjugate(), 1.0 - 0.5 * d1, f12,
        f02.conjugate(), f12.conjugate(), 1.0 - 0.5 * d2,
    ))
    det = _det3(((q0, q1, q2), (q3, q4, q5), (q6, q7, q8)))
    return (q0 / det, q1, q2, q3 / det, q4, q5, q6 / det, q7, q8)


# Plane-major stacks: every stack that crosses a module boundary is an
# ordinary (n, 3, 3) array whose memory holds (3, 3, n) planes, so that
# entry (i, k) of every matrix is one contiguous length-n row.  Only the
# kernels below form the planes view x.transpose(1, 2, 0): on it a stacked
# product is 15 vector operations over (3, n) rows, where matmul makes one
# small BLAS call per matrix.  Every planar kernel allocates its own output
# and work rows and returns a new stack.  Both orbit engines copy their
# pairs once on entry (_pair_stacks) and hand exp_algebra and renormalize
# their stacks as they are.  A .copy() of such a stack is C-ordered: the
# same values in the slow layout.


def _pair_stacks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fresh plane-major copies of a and b, refused with
    InvalidGroupElementError unless they are two (n, 3, 3) stacks of one
    shape that pass assert_special_unitary, as RepPoint's matrices must.

    This is the entry of both orbit engines.  twist_flow does not pass
    through it: it takes a RepPoint, whose construction makes the same
    check.  Past it, exp_algebra checks only each row's x and renormalize
    runs only on cadence, so without this check a NaN, or a pair far off
    SU(3), could ride to the end of a short walk or word.
    Always copies, so the engines never write the caller's memory: a
    C-ordered 1-row stack is plane-major already.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    _check_layout(a, b)
    if a.ndim != 3:
        raise InvalidGroupElementError(f"expected (n, 3, 3) stacks, got shape {a.shape}")
    a, b = (u.transpose(1, 2, 0).copy().transpose(2, 0, 1) for u in (a, b))
    assert_special_unitary(a)
    assert_special_unitary(b)
    return a, b


def _plane_major(x: np.ndarray) -> np.ndarray:
    """A (..., 3, 3) array as an (n, 3, 3) plane-major stack: x's own memory
    when it is laid out so already, a copy otherwise.  Callers check the
    layout first (_check_layout)."""
    planes = np.asarray(x, dtype=complex).reshape(-1, 3, 3).transpose(1, 2, 0)
    return np.ascontiguousarray(planes).transpose(2, 0, 1)


def _char_poly_planes(u: np.ndarray) -> tuple:
    """The characteristic polynomial lambda^3 - s lambda^2 + e lambda - d of
    each matrix of an (n, 3, 3) stack, run on its planes: the trace s, the
    sum e of the principal 2x2 minors and the determinant d (_det3), with
    the squared Frobenius norm beside them, as four (n,) arrays."""
    p = _plane_major(u).transpose(1, 2, 0)
    s = p[0, 0] + p[1, 1] + p[2, 2]
    e = (
        (p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])
        + (p[0, 0] * p[2, 2] - p[0, 2] * p[2, 0])
        + (p[1, 1] * p[2, 2] - p[1, 2] * p[2, 1])
    )
    norm2 = (np.square(p.real) + np.square(p.imag)).sum(axis=(0, 1))
    return s, e, _det3(p), norm2


def _check_layout(*arrays, error: type[Exception] = InvalidGroupElementError) -> None:
    """Refuse, with `error`, an array whose last two axes are not (3, 3), and
    further arrays of another shape: the kernels call it before they read
    a layout, so a malformed shape or pair is neither reinterpreted,
    broadcast, nor left to fail in numpy."""
    shape = np.shape(arrays[0])
    if shape[-2:] != (3, 3):
        raise error(f"expected 3x3 matrices in the last two axes, got shape {shape}")
    for u in arrays[1:]:
        if np.shape(u) != shape:
            raise error(f"expected stacks of one shape, got {shape} and {np.shape(u)}")


def _check_finite(u: np.ndarray, error: type[Exception] = InvalidGroupElementError) -> None:
    """Refuse, with `error`, an array with a NaN or inf entry: the kernels
    that call it would otherwise warn in numpy, fail untyped inside LAPACK,
    or return a number for it."""
    if not np.isfinite(u).all():
        raise error("expected finite entries, got NaN or inf")


def _planar_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for (n, 3, 3) stacks, run on their planes, as a new stack laid
    out like x.

    Row i of the product's planes is sum_j x[i, j] y[j], added left to
    right: 15 vector operations over (3, n) rows.  x and y may be strided.
    """
    stack = np.empty_like(x)
    out = stack.transpose(1, 2, 0)
    t = np.empty(out.shape[1:], dtype=complex)
    y0, y1, y2 = y.transpose(1, 2, 0)
    for (x0, x1, x2), out_i in zip(x.transpose(1, 2, 0), out):
        np.multiply(x0, y0, out=out_i)
        np.multiply(x1, y1, out=t)
        out_i += t
        np.multiply(x2, y2, out=t)
        out_i += t
    return stack


def _renormalize_planes(u: np.ndarray) -> np.ndarray:
    """renormalize on an (n, 3, 3) stack, run on its planes: the same guard,
    Newton-Schulz step and first-column phase, with the cofactor
    determinant taken on the plane rows.  Returns a new stack; u is not
    written."""
    # An inf entry makes inf * 0 in the Gram product and a huge one
    # overflows; the guard refuses the result, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        factor = _gram_defect_planes(u)
        defect = np.abs(factor).max(initial=0.0)
    _check_drift(defect)
    # (3 Id - u^H u) / 2, written over u^H u - Id.
    factor *= -0.5
    for i in range(3):
        factor[:, i, i] += 1.0
    q = _planar_product(u, factor).transpose(1, 2, 0)
    q[:, 0] /= _det3(q)
    return q.transpose(2, 0, 1)


def _gram_defect_planes(u: np.ndarray) -> np.ndarray:
    """u^H u - Id for an (n, 3, 3) stack, run on its planes p, exactly
    Hermitian; a new stack laid out like u.

    Entry (i, j) is sum_k conj(p_ki) p_kj, added left to right, for the
    three entries above the diagonal; the three below are their
    conjugates, and the diagonal is the squared column norms minus 1, with
    no imaginary part: 9 complex products and 9 squared moduli where all
    nine entries as one planar product took 27 complex products.  That
    product was also Hermitian only to roundoff, because numpy's SIMD
    complex multiply is not bitwise conjugate symmetric (conj(z) z has an
    imaginary part in the last bits).
    """
    p = u.transpose(1, 2, 0)
    gram = np.empty_like(p)
    conj = np.conjugate(p[:, :2])
    t = np.empty(p.shape[2:], dtype=complex)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        out = gram[i, j]
        np.multiply(conj[0, i], p[0, j], out=out)
        for k in (1, 2):
            np.multiply(conj[k, i], p[k, j], out=t)
            out += t
        np.conjugate(out, out=gram[j, i])
    norms = np.square(p.real) + np.square(p.imag)
    for i in range(3):
        gram[i, i] = norms[0, i] + norms[1, i] + norms[2, i] - 1.0
    return gram.transpose(2, 0, 1)
