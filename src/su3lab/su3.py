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

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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

# Inputs farther than this from the unitary group are refused by renormalize.
RENORM_GUARD = 0.1

# renormalize replaces the SVD by one Newton-Schulz step when the stack's
# Gram defect is at most this; the step's error, (3/8) d^2 < 4e-17, is
# then below roundoff.
NEWTON_SCHULZ_DEFECT = 1e-8

# Below this c1 = tr(Q^2)/2 exp_algebra sums its Taylor series: there the
# closed form's f2 carries an error of about eps/c1, while _EXP_TAYLOR_TERMS
# terms already reach roundoff (eigenvalues of Q are at most 2 sqrt(c1/3)).
EXP_TAYLOR_C1 = 1e-3
_EXP_TAYLOR_TERMS = 8

# sin(w)/w switches to its series below this w; the truncation error of the
# four-term series there is at most w^8/9! = 1.1e-16.
_SINC_SERIES_W = 0.05

_SQRT3 = float(np.sqrt(3.0))

IDENTITY = np.eye(3, dtype=complex)
OMEGA = np.exp(2j * np.pi / 3)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def trace(m: np.ndarray) -> np.ndarray:
    """Trace over the last two axes."""
    return np.trace(m, axis1=-2, axis2=-1)


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of u dagger(u) from Id, plus the
    determinant's distance from 1, maximized over any batch (0 when empty)."""
    u = np.asarray(u, dtype=complex)
    gram = np.abs(u @ dagger(u) - IDENTITY).max(initial=0.0)
    det = np.abs(np.linalg.det(u) - 1.0).max(initial=0.0)
    return float(max(gram, det))


def is_special_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    return unitarity_defect(u) <= tol


def assert_special_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    defect = unitarity_defect(u)
    if defect > tol:
        raise InvalidGroupElementError(
            f"matrix is {defect:.3e} away from the special unitary group"
            f" (tolerance {tol:.1e})"
        )


def algebra_defect(x: np.ndarray) -> float:
    """Largest deviation from being traceless anti-Hermitian, over any batch
    (0 when empty)."""
    x = np.asarray(x, dtype=complex)
    herm = np.abs(x + dagger(x)).max(initial=0.0)
    tr = np.abs(trace(x)).max(initial=0.0)
    return float(max(herm, tr))


def is_algebra_element(x: np.ndarray, tol: float = ALGEBRA_TOL) -> bool:
    return algebra_defect(x) <= tol


def assert_algebra_element(x: np.ndarray, tol: float = ALGEBRA_TOL) -> None:
    defect = algebra_defect(x)
    if defect > tol:
        raise InvalidAlgebraError(
            f"matrix is {defect:.3e} away from the traceless anti-Hermitian"
            f" algebra (tolerance {tol:.1e})"
        )


def exp_algebra(x: np.ndarray) -> np.ndarray:
    """Exponential of a traceless anti-Hermitian matrix, landing in SU(3).

    Closed form by the Cayley-Hamilton theorem (Morningstar and Peardon,
    "Analytic smearing of SU(3) link variables", Phys. Rev. D 69 (2004)
    054501, hep-lat/0311018).  With Q = -i x Hermitian and traceless,
    Q^3 = c1 Q + c0 Id for c0 = det Q and c1 = tr(Q^2)/2, so
    exp(x) = f0 Id + f1 Q + f2 Q^2 exactly.  The f_j are trigonometric in
    the eigenvalue parameters (u, w) of Q, found from c0 and c1 without an
    eigensolver.  Three cases keep them accurate:

    - c0 < 0 uses the symmetry Q -> -Q (u -> -u), so the divisor
      9u^2 - w^2 stays at least 2 c1;
    - near w = 0 (two equal eigenvalues) sin(w)/w is summed as a series;
    - for c1 < EXP_TAYLOR_C1 (near x = 0), where the divided form loses
      about eps/c1 in f2, the f_j come from the exponential's Taylor
      series reduced by Q^3 = c1 Q + c0 Id instead.

    The result is a polynomial in x, so it commutes with x by
    construction.  Raises InvalidAlgebraError for inputs off the algebra.
    Accepts stacks.
    """
    x = np.asarray(x, dtype=complex)
    assert_algebra_element(x)
    shape = x.shape
    x = x.reshape(-1, 3, 3)
    x2 = x @ x
    # With Q = -i x: tr(Q^2) = -tr(x^2) and det Q = tr(Q^3)/3 = i tr(x^3)/3.
    c1 = -0.5 * trace(x2).real
    c0 = np.einsum("nij,nji->n", x, x2).imag / -3.0
    f0, f1, f2 = _exp_coefficients(c0, c1)
    # exp(x) = f0 Id + f1 Q + f2 Q^2 with Q = -i x and Q^2 = -x^2.
    out = x2 * -f2[:, None, None]
    out -= x * (1j * f1)[:, None, None]
    out.reshape(-1, 9)[:, ::4] += f0[:, None]  # the diagonal
    return out.reshape(shape)


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


def inner_product(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """The invariant pairing Tr(x y); real on the algebra.

    The imaginary part is asserted to be roundoff-level before being
    dropped, so accidentally passing a non-algebra matrix fails loudly.
    """
    val = trace(np.asarray(x, dtype=complex) @ np.asarray(y, dtype=complex))
    if np.abs(val.imag).max() > 1e-12:
        raise InvalidAlgebraError(
            "pairing has a non-real value; inputs are not algebra elements"
        )
    out = val.real
    return float(out) if out.ndim == 0 else out


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


def algebra_coords(x: np.ndarray) -> np.ndarray:
    """Real coordinates of algebra elements in ALGEBRA_BASIS; accepts stacks."""
    return -np.real(np.einsum("...ab,kba->...k", np.asarray(x, complex), ALGEBRA_BASIS))


def algebra_from_coords(v: np.ndarray) -> np.ndarray:
    """Inverse of algebra_coords."""
    return np.einsum("...k,kab->...ab", np.asarray(v, float), ALGEBRA_BASIS)


def adjoint_matrix(g: np.ndarray) -> np.ndarray:
    """The 8x8 real matrix of conjugation by g in ALGEBRA_BASIS.

    Orthogonal, because conjugation preserves the pairing.  Accepts stacks
    (returns ...x8x8).
    """
    g = np.asarray(g, dtype=complex)
    conj = np.einsum("...ab,kbc,...dc->...kad", g, ALGEBRA_BASIS, np.conjugate(g))
    return -np.real(np.einsum("...kab,jba->...jk", conj, ALGEBRA_BASIS))


def random_algebra(rng: np.random.Generator, scale: float = 1.0, size: int | None = None) -> np.ndarray:
    """Gaussian random algebra element(s) with the given coordinate scale."""
    shape = (8,) if size is None else (size, 8)
    return algebra_from_coords(scale * rng.standard_normal(shape))


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
    q[..., :, 0] /= det[..., None] if q.ndim == 3 else det
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


def regularity_gap(u: np.ndarray) -> np.ndarray:
    """Minimal pairwise circle distance of the eigenvalue angles."""
    return angle_gap(eigenvalue_angles(u))


def is_regular(u: np.ndarray, gap: float = REGULARITY_GAP) -> bool | np.ndarray:
    out = regularity_gap(u) >= gap
    return bool(out) if np.ndim(out) == 0 else out


def unitary_eigensystem(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles (turns, sorted ascending) and orthonormal eigenvectors of one
    unitary matrix.

    Complex Schur factorization is diagonal for normal matrices up to
    roundoff and returns an exactly unitary frame, which the closed-form
    cubic does not guarantee near repeated eigenvalues.  Single matrix only.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise InvalidGroupElementError("unitary_eigensystem takes a single 3x3 matrix")
    t, z = scipy.linalg.schur(u, output="complex")
    angles = np.mod(np.angle(np.diagonal(t)) / (2 * np.pi), 1.0)
    order = np.argsort(angles, kind="stable")
    return angles[order], z[:, order]


@dataclass(frozen=True)
class TorusFrame:
    """Eigenframe of a regular group element.

    The element is eigenvectors @ diag(exp(2 pi i angles)) @ dagger(eigenvectors);
    group elements commuting with it are exactly the ones diagonal in this
    frame, so powers of the element and products with it can be iterated
    exactly on the angles in this frame.
    """

    base: np.ndarray
    eigenvectors: np.ndarray
    angles: np.ndarray


def torus_frame(a: np.ndarray) -> TorusFrame:
    """Eigenframe of a regular special unitary matrix.

    Raises NonRegularElementError when the minimal eigenvalue-angle gap is
    below REGULARITY_GAP.
    """
    a = np.asarray(a, dtype=complex)
    assert_special_unitary(a)
    angles, vectors = unitary_eigensystem(a)
    gap = angle_gap(angles)
    if gap < REGULARITY_GAP:
        raise NonRegularElementError(
            f"eigenvalue-angle gap {gap:.3e} is below the regularity threshold"
        )
    return TorusFrame(base=a, eigenvectors=vectors, angles=angles)


def renormalize(u: np.ndarray) -> np.ndarray:
    """Project near-unitary matrices back onto SU(3); accepts stacks.

    The unitary factor of the polar decomposition, then the determinant
    phase divided out of the first column.  Idempotent to roundoff.

    When the stack's Gram defect max |u^H u - Id| is at most
    NEWTON_SCHULZ_DEFECT, one Newton-Schulz step u (3 Id - u^H u) / 2
    gives the polar factor (Higham, "Functions of Matrices", SIAM 2008,
    ch. 8): for Gram defect d it is off by about (3/8) d^2, below
    roundoff there.  The orbit engines drift by about 1e-14 between
    renormalizations, so this is their path.  Any larger defect takes the
    polar factor from the SVD, which is also where RENORM_GUARD applies:
    DriftExplosionError is raised when a singular value of any input is
    farther than RENORM_GUARD from 1.
    """
    u = np.asarray(u, dtype=complex)
    if u.size == 0:
        return u.copy()
    gram = dagger(u) @ u
    if np.abs(gram - IDENTITY).max() <= NEWTON_SCHULZ_DEFECT:
        q = u @ (1.5 * IDENTITY - 0.5 * gram)
    else:
        w, s, vh = np.linalg.svd(u)
        worst = np.abs(s - 1.0).max()
        if worst > RENORM_GUARD:
            raise DriftExplosionError(
                f"singular values deviate from 1 by {worst:.3e}, beyond the"
                f" guard {RENORM_GUARD}; an orbit engine upstream is broken"
            )
        q = w @ vh
    det = _det3(q)
    q[..., :, 0] /= det[..., None] if q.ndim > 2 else det
    return q


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinant of 3x3 matrices by cofactor expansion; accepts stacks.

    Elementwise over the stack, where np.linalg.det runs one LU
    factorization per matrix and is about 10x slower on wide stacks.
    """
    # m.T reverses every axis, so the unpacked entries are those of the
    # transposed matrices (same determinant) with the batch axes reversed,
    # which the final .T restores.  On a single matrix they are scalars,
    # which keeps the call cheap there.
    (a, b, c), (d, e, f), (g, h, i) = m.T
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)).T
