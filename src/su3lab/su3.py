"""Core linear algebra for the special unitary group SU(3) and its algebra.

Conventions used throughout the package:

- Group elements are 3x3 complex arrays U with U @ dagger(U) = Id and
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
# above this.  The eigenvalues s^2 - 1 of the Hermitian u^H u - Id are at
# most its largest row sum, 3 d, in size (Gershgorin), so d <= 0.06 puts
# every singular value s in [sqrt(0.82), sqrt(1.18)] = [0.906, 1.086],
# inside the Newton-Schulz convergence region (0, sqrt 3).  Conversely a
# singular value farther than 0.1 from 1 gives |s^2 - 1| >= 0.19, and the
# largest entry of a 3x3 matrix is at least a third of its spectral norm,
# so then d >= 0.063 and the input is refused.
RENORM_GUARD = 0.06

# renormalize repeats Newton-Schulz steps until the Gram defect is at most
# this, then takes one last step, whose error (3/8) d^2 < 4e-17 is below
# roundoff.  Product paths reach renormalize with Gram defects below
# 1e-12, so on them only the last step runs.
NEWTON_SCHULZ_DEFECT = 1e-8

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
    """Largest entrywise deviation of u dagger(u) from Id, plus the
    determinant's distance from 1, maximized over any batch (0 when empty)."""
    u = np.asarray(u, dtype=complex)
    _check_layout(u)
    gram = np.abs(u @ dagger(u) - IDENTITY).max(initial=0.0)
    det = np.abs(np.linalg.det(u) - 1.0).max(initial=0.0)
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
    (0 when empty, NaN when an entry is NaN or inf).  Runs on planes."""
    p = _planes_view(np.asarray(x, dtype=complex), InvalidAlgebraError)
    # An inf entry makes inf - inf; the NaN is refused by the callers, so
    # numpy need not warn about it first.
    with np.errstate(invalid="ignore"):
        herm = np.abs(p + np.conjugate(p.transpose(1, 0, 2))).max(initial=0.0)
        tr = np.abs(p[0, 0] + p[1, 1] + p[2, 2]).max(initial=0.0)
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
    the result off the group.  Accepts stacks.

    Runs on planes, a lone matrix as a stack of one (see _exp_planes), and
    returns the stack view of new planes.
    """
    x = np.asarray(x, dtype=complex)
    assert_algebra_element(x)
    p = np.ascontiguousarray(_planes_view(x))
    return _stack_view(_exp_planes(p)).reshape(x.shape)


def _exp_planes(p: np.ndarray) -> np.ndarray:
    """exp_algebra on planes: x^2 is one planar product, c1 and c0 come from
    the diagonals of x^2 and x^3, and the f_j multiply the planes row by
    row.  Returns new planes; p is not written."""
    # An element too large for the c1 refusal below overflows x^2 into inf
    # and c0 into NaN; the refusal covers both, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _planar_product(p, p)
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
        half = _exp_planes(p[:, :, squaring] / 2)
        out[:, :, squaring] = _planar_product(half, half)
    return out


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

# L and R of adjoint_matrix's Kronecker form.
_ADJ_LEFT = np.ascontiguousarray(ALGEBRA_BASIS.swapaxes(1, 2).reshape(8, 9))
_ADJ_RIGHT = np.ascontiguousarray(ALGEBRA_BASIS.reshape(8, 9).T)
_ADJ_LEFT.setflags(write=False)
_ADJ_RIGHT.setflags(write=False)


def adjoint_matrix(g: np.ndarray) -> np.ndarray:
    """The 8x8 real matrix of conjugation by g in ALGEBRA_BASIS.

    Entry (j, k) is -Re Tr(g E_k g^H E_j).  With the Kronecker product
    K = g (x) conj(g), K[3a + d, 3b + c] = g[a, b] conj(g[d, c]), this is
    -Re(L K R) for the fixed 8x9 matrix L[j, 3a + d] = E_j[d, a] and 9x8
    matrix R[3b + c, k] = E_k[b, c]: two small matrix products per element.
    Orthogonal, because conjugation preserves the pairing.  Accepts stacks
    (returns ...x8x8).
    """
    g = np.asarray(g, dtype=complex)
    kron = g[..., :, None, :, None] * np.conjugate(g)[..., None, :, None, :]
    kron = kron.reshape(g.shape[:-2] + (9, 9))
    return -np.real(_ADJ_LEFT @ kron @ _ADJ_RIGHT)


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
    only the spectrum is needed; use unitary_eigensystem for a frame.
    """
    lam = np.linalg.eigvals(np.asarray(u, dtype=complex))
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

    The polar factor comes from Newton-Schulz steps u (3 Id - u^H u) / 2
    (Higham, "Functions of Matrices", SIAM 2008, ch. 8): they are repeated
    while the Gram defect d = max |u^H u - Id| is above
    NEWTON_SCHULZ_DEFECT, and one more step follows, which is off by about
    (3/8) d^2, below roundoff.  The orbit engines drift by about 1e-14
    between renormalizations, so on their path only that last step runs.
    DriftExplosionError is raised when the input's Gram defect is above
    RENORM_GUARD or is not finite (a NaN or inf entry), and
    InvalidGroupElementError when the last two axes are not (3, 3).

    A stack runs on planes, as in exp_algebra, and returns the stack view
    of new planes.  A lone matrix takes one np.dot per product, which
    makes the same zgemm call as matmul without matmul's per-call gufunc
    setup.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim > 2:
        p = np.ascontiguousarray(_planes_view(u))
        return _stack_view(_renormalize_planes(p)).reshape(u.shape)
    _check_layout(u)
    gram = np.dot(dagger(u), u)
    defect = np.abs(gram - IDENTITY).max()
    _check_drift(defect)
    while defect > NEWTON_SCHULZ_DEFECT:
        u = np.dot(u, 1.5 * IDENTITY - 0.5 * gram)
        gram = np.dot(dagger(u), u)
        defect = np.abs(gram - IDENTITY).max()
    q = np.dot(u, 1.5 * IDENTITY - 0.5 * gram)
    q[:, 0] /= _det3(q.T.tolist())
    return q


def _check_drift(defect) -> None:
    # Written as `not <=` so that a NaN defect is refused too.
    if not defect <= RENORM_GUARD:
        raise DriftExplosionError(
            f"Gram defect {defect:.3e} is beyond the guard {RENORM_GUARD};"
            " an orbit engine upstream is broken"
        )


def _det3(rows):
    """Determinant of a 3x3 matrix from its rows, by cofactor expansion.

    The rows of planes give the determinant of every matrix at once.  For
    a lone matrix m, m.T.tolist() gives the rows of its transpose (same
    determinant) as Python complex numbers: they multiply by the same
    formula as numpy's complex scalars, so the same bits, without numpy's
    per-operation dispatch.  Each cofactor is the left operand: numpy's
    SIMD complex multiply is not bitwise commutative, and this order keeps
    the planar bits.
    """
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (e * i - f * h) * a - (d * i - f * g) * b + (d * h - e * g) * c


# Planes: a stack of n 3x3 matrices stored with shape (3, 3, n), so that
# entry (i, k) of every matrix is one contiguous length-n vector and a
# stacked product is 15 vector operations over (3, n) rows, where matmul
# makes one small BLAS call per matrix.  Every planar kernel returns new
# planes and allocates its own output and work rows.  Both orbit engines
# convert once on entry (_to_planes) and return the stack view of new
# planes; in between they hand exp_algebra and renormalize the (n, 3, 3)
# stack view of their planes and take the stack view of new planes back.


def _to_planes(u: np.ndarray) -> np.ndarray:
    """A fresh contiguous (3, 3, n) copy of an (n, 3, 3) stack, refused with
    InvalidGroupElementError when it has another shape or an entry is NaN
    or inf.

    This is the entry of both orbit engines and of twist_flow.  Past it,
    exp_algebra checks only each row's x and renormalize runs only on
    cadence, so without this check a NaN could ride to the end of a short
    walk or word.
    Always a copy, so planes never share the caller's memory: at n = 1 the
    transposed view is already contiguous, and np.ascontiguousarray would
    return it.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 3 or u.shape[1:] != (3, 3):
        raise InvalidGroupElementError(f"expected an (n, 3, 3) stack, got shape {u.shape}")
    p = u.transpose(1, 2, 0).copy()
    if not np.isfinite(p).all():
        raise InvalidGroupElementError("stack has a NaN or inf entry")
    return p


def _stack_view(p: np.ndarray) -> np.ndarray:
    """The (n, 3, 3) view of planes p, without a copy."""
    return p.transpose(2, 0, 1)


def _check_layout(*arrays, error: type[Exception] = InvalidGroupElementError) -> None:
    """Refuse, with `error`, any array whose last two axes are not (3, 3): the
    planar views and the lone-matrix paths call it before they read a layout,
    so a malformed shape is neither reinterpreted nor left to fail in numpy."""
    for u in arrays:
        if np.shape(u)[-2:] != (3, 3):
            raise error(f"expected 3x3 matrices in the last two axes, got shape {np.shape(u)}")


def _planes_view(
    x: np.ndarray, error: type[Exception] = InvalidGroupElementError
) -> np.ndarray:
    """The (3, 3, n) view of a (..., 3, 3) stack: the planes themselves when
    x is their _stack_view.  Other shapes are refused with `error`."""
    _check_layout(x, error=error)
    return x.reshape(-1, 3, 3).transpose(1, 2, 0)


def _broadcast_planes(*stacks: np.ndarray) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Contiguous (3, 3, n) planes of (..., 3, 3) stacks broadcast against
    one another, and their common batch shape.  The stack view of planes
    gives its planes without a copy; any other layout is copied, as
    exp_algebra and renormalize copy theirs."""
    _check_layout(*stacks)
    stacks = np.broadcast_arrays(*(np.asarray(s, dtype=complex) for s in stacks))
    planes = [np.ascontiguousarray(_planes_view(s)) for s in stacks]
    return planes, stacks[0].shape[:-2]


def _planar_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y on planes, as new planes laid out like x.

    Row i is sum_j x[i, j] y[j], added left to right: 15 vector operations
    over (3, n) rows.  x and y may be strided views of planes.
    """
    out = np.empty_like(x)
    t = np.empty(x.shape[1:], dtype=complex)
    y0, y1, y2 = y
    for (x0, x1, x2), out_i in zip(x, out):
        np.multiply(x0, y0, out=out_i)
        np.multiply(x1, y1, out=t)
        out_i += t
        np.multiply(x2, y2, out=t)
        out_i += t
    return out


def _renormalize_planes(p: np.ndarray) -> np.ndarray:
    """renormalize on planes: the same guard, Newton-Schulz steps and
    first-column phase, with the cofactor determinant taken on the planes.
    Returns new planes; p is not written."""
    # An inf entry makes inf * 0 in the Gram product; the guard refuses
    # the result, so numpy need not warn about it first.
    with np.errstate(invalid="ignore"):
        gram = _gram_defect_planes(p)
        defect = np.abs(gram).max(initial=0.0)
    _check_drift(defect)
    while defect > NEWTON_SCHULZ_DEFECT:
        p = _planar_product(p, _newton_schulz_factor(gram))
        gram = _gram_defect_planes(p)
        defect = np.abs(gram).max()
    q = _planar_product(p, _newton_schulz_factor(gram))
    q[:, 0] /= _det3(q)
    return q


def _gram_defect_planes(p: np.ndarray) -> np.ndarray:
    """p^H p - Id on planes, exactly Hermitian.

    Entry (i, j) is sum_k conj(p_ki) p_kj, added left to right, for the
    three entries above the diagonal; the three below are their
    conjugates, and the diagonal is the squared column norms minus 1, with
    no imaginary part: 9 complex products and 9 squared moduli where all
    nine entries as one planar product took 27 complex products.  That
    product was also Hermitian only to roundoff, because numpy's SIMD
    complex multiply is not bitwise conjugate symmetric (conj(z) z has an
    imaginary part in the last bits).
    """
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
    return gram


def _newton_schulz_factor(gram_defect: np.ndarray) -> np.ndarray:
    """(3 Id - p^H p) / 2 on planes, written over p^H p - Id."""
    gram_defect *= -0.5
    for i in range(3):
        gram_defect[i, i] += 1.0
    return gram_defect
