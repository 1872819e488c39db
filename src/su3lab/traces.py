"""Trace coordinates on SU(3) pairs: the planar trace domain, eigenvalue
angles recovered from a trace value, genericity of eigenvalue angles, and
the nine-trace character of a pair.

The trace of a special unitary 3x3 matrix determines its characteristic
polynomial completely:

    lambda^3 - z lambda^2 + conj(z) lambda - 1,       z = Tr(u),

so the set of attainable traces is the curved triangle

    Delta = { z : |z|^4 - 8 Re(z^3) + 18 |z|^2 - 27 <= 0 },

with vertices at 3 times the cube roots of unity (central elements) and the
midpoints of its edges at the traces of order-two elements.
"""

from __future__ import annotations

import numpy as np

from .errors import TraceDomainError
from .su3 import (
    REGULARITY_GAP,
    _char_poly_planes,
    _check_finite,
    _check_layout,
    _planar_product,
    _plane_major,
    angle_gap,
    eigenvalue_angles,
)

# Order of the character coordinates; fixed, because it is also the CSV schema.
# "inv_" names the trace of the inverse holonomy, which for special unitary
# matrices is the complex conjugate of the partner coordinate.
CHARACTER_NAMES = (
    "tr_a",
    "tr_b",
    "tr_ab",
    "tr_ab_inv",
    "tr_comm",
    "tr_inv_a",
    "tr_inv_b",
    "tr_inv_ab",
    "tr_inv_ab_inv",
)

# The 18 real columns of character_reals, re/im interleaved.
REAL_COLUMN_NAMES = tuple(
    f"{part}_{name}" for name in CHARACTER_NAMES for part in ("re", "im")
)

DELTA_BOUNDARY_TOL = 1e-9


def delta_defect(z: complex | np.ndarray) -> np.ndarray:
    """Boundary defect of the trace domain: negative inside, zero on the
    boundary, positive outside.  Accepts arrays; a single z gives a numpy
    scalar."""
    z = np.asarray(z, dtype=complex)
    # An overflowing z gives NaN or inf here; callers refuse it, so numpy's
    # warnings would only repeat the error.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = z.real**2 + z.imag**2
        return sq * sq - 8 * np.real(z**3) + 18 * sq - 27


def char_poly_roots(z: complex) -> np.ndarray:
    """Eigenvalue angles (turns, sorted ascending) of any group element with
    trace z.

    Solves the characteristic polynomial determined by z and projects the
    roots onto the unit circle (they can drift off it by the usual
    root-clustering error when z sits on the domain boundary, where
    eigenvalues collide).  Raises TraceDomainError outside the domain.
    """
    z = complex(z)
    defect = delta_defect(z)
    # The defect vanishes to third order at the vertices 3 omega^k, so a z
    # just beyond one (3.0001: defect 4e-12) is refused by its modulus, which
    # is at most 3 on the domain.  Written so that the NaN defect of an
    # overflowing z is refused here too.
    if abs(z) > 3 + DELTA_BOUNDARY_TOL or not defect <= DELTA_BOUNDARY_TOL:
        raise TraceDomainError(
            f"trace {z!r} lies outside the trace domain (defect {defect:.3e})"
        )
    roots = np.roots([1.0, -z, np.conjugate(z), -1.0])
    moduli = np.abs(roots)
    if np.max(np.abs(moduli - 1.0)) > 1e-4:
        raise TraceDomainError(
            f"characteristic roots of {z!r} left the unit circle"
        )
    return np.sort(np.mod(np.angle(roots / moduli) / (2 * np.pi), 1.0))


# The genericity policy: an integer relation of height at most
# GENERICITY_HEIGHT holding within GENERICITY_TOL makes angles non-generic.
# Fixed rather than tunable.  angles_have_relation holds one
# (rows, 2 height + 1) block at a time, one per first coefficient: about a
# third of the (rows, 8, 16) differential beside it in a rank census.
GENERICITY_HEIGHT = 20
GENERICITY_TOL = 1e-9


def angles_have_relation(angles: np.ndarray) -> np.ndarray:
    """Whether any integer vector (m0, m1, m2), not all zero, with entries
    bounded by GENERICITY_HEIGHT, satisfies |m1 th1 + m2 th2 + m0| <=
    GENERICITY_TOL.

    Only th1 and th2 are searched.  The third angle differs from
    -(th1 + th2) by an integer, so a relation involving it becomes one in
    (th1, th2), but of up to twice its height: a relation of height at most
    GENERICITY_HEIGHT that involves th3 is found only when its rewritten
    form is also within the height bound.  Sorted angles (0.30641,
    0.33717, 0.35641), for one, satisfy 20 (th3 - th1) = 1, which is
    40 th1 + 20 th2 = 19 here, and report no relation.  A vector and
    its negation are the same relation, and the search gives them the same
    verdict bit for bit (negation is exact and rounding is odd), so it
    covers only m1 >= 0, with m2 > 0 when m1 = 0: brute force over half the
    (2 GENERICITY_HEIGHT + 1)^2 grid, one m1 at a time.  Accepts stacked
    angle triples (one triple gives a numpy bool).
    """
    angles = np.asarray(angles, dtype=float)
    th1 = angles[..., 0, None]
    # second[..., i] = th2 m2 for m2 = i - GENERICITY_HEIGHT.
    second = angles[..., 1, None] * np.arange(-GENERICITY_HEIGHT, GENERICITY_HEIGHT + 1)
    out = np.zeros(angles.shape[:-1], dtype=bool)
    # Two buffers reused for every m1: a fresh (rows, 41) array per step
    # costs about as much as the arithmetic on it.
    combo = np.empty_like(second)
    m0 = np.empty_like(second)
    for m1 in range(GENERICITY_HEIGHT + 1):
        lo = 0 if m1 else GENERICITY_HEIGHT + 1
        c, r = combo[..., lo:], m0[..., lo:]
        np.multiply(th1, m1, out=c)
        c += second[..., lo:]
        np.round(c, out=r)
        c -= r
        hit = np.abs(c, out=c) <= GENERICITY_TOL
        hit &= np.abs(r, out=r) <= GENERICITY_HEIGHT
        out |= hit.any(axis=-1)
    return out[()]


# is_generic's screen admits a row to its closed form only where the cubic's
# roots are well separated and u is close to a multiple of a unitary matrix:
#   |D| > _SCREEN_DISCRIMINANT_FLOOR |u|_F^6, for D = (Q/2)^2 + (P/3)^3 of
#   the depressed cubic, which is prod |l_i - l_j|^2 / 108: a Haar element
#   has |D| / |u|_F^6 at least 2.8e-6 in 20 000 draws, a double root has 0;
#   every |l_i|^2 >= _SCREEN_MODULUS_FLOOR |u|_F^2, exactly 1/3 for a
#   multiple of a unitary matrix.  By Schur, |u|_F^2 - sum |l_i|^2 is the
#   squared departure from normality, so it is at most a tenth of |u|_F^2,
#   and no root sits near 0, where its angle is ill-conditioned.
# On admitted rows the sorted angles from the cubic differ from
# eigenvalue_angles' by at most 3.1e-14 (both errors grow as eps |u|_F^3 /
# sqrt|D|), in 9e5 rows of Haar frames with a pair gap of 1e-6 to 0.3
# turns under complex Gaussian noise of 1e-9 to 3, measured on x86_64.
# _CUBIC_ANGLE_ERROR bounds that difference with a factor 3 to spare.
_SCREEN_DISCRIMINANT_FLOOR = 1e-8
_SCREEN_MODULUS_FLOOR = 0.3
_CUBIC_ANGLE_ERROR = 1e-13
# A pairwise circle distance moves by at most twice the angle error, plus
# the rounding of two circle_distance calls (below 1e-15): a row whose cubic
# gap clears REGULARITY_GAP by this margin is regular in eigenvalue_angles
# too.  The same margin below 1 for the largest angle keeps the two sorted
# orders equal; the smallest is kept from 0 by the relation screen (m1 = 1).
_SCREEN_GAP_MARGIN = 2 * _CUBIC_ANGLE_ERROR + 1e-15
# m1 th1 + m2 th2 moves by at most (|m1| + |m2|) times the angle error,
# 2 GENERICITY_HEIGHT = 40 times, plus the rounding of both computations
# of it (products up to 20 and sums up to 40 in turns: below 2e-14).  A row
# whose cubic angles keep every combination more than GENERICITY_TOL plus
# this slack from an integer has no relation in angles_have_relation.
_SCREEN_RELATION_SLACK = 2 * GENERICITY_HEIGHT * _CUBIC_ANGLE_ERROR + 2e-14

_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)
# The screen's multiples m th mod 1: th2 times m2 = -H..-1, 1..H, then th1
# times m1 = 1..H.
_SCREEN_ANGLE = np.repeat([1, 0], [2 * GENERICITY_HEIGHT, GENERICITY_HEIGHT])
_SCREEN_MULTIPLE = np.concatenate(
    [np.arange(-GENERICITY_HEIGHT, 0), np.tile(np.arange(1, GENERICITY_HEIGHT + 1), 2)]
).astype(float)


def is_generic(u: np.ndarray) -> np.ndarray:
    """Whether u is regular with rationally independent eigenvalue angles,
    up to the search height and tolerance of angles_have_relation.

    Generic elements generate dense subgroups of their maximal torus; the
    truncated search can reject a truly generic element (harmless for
    experiment seeding).  It can also accept an element with a relation
    within the height bound: a relation that involves the third angle is
    searched at up to twice its height, and missed past the bound (see
    angles_have_relation, whose sorted angles (0.30641, 0.33717, 0.35641)
    with 20 (th3 - th1) = 1 pass as generic).

    Each flag is the answer of eigenvalue_angles, angle_gap and
    angles_have_relation.  Most rows never run them: a closed-form screen
    (_screened_generic) takes the angles from u's characteristic
    polynomial and settles a row as generic where those angles clear the
    gap and every relation by more than their difference from
    eigenvalue_angles' can move them.  The exact path runs on the other
    rows alone, gathered.  Accepts stacks; a single element gives a numpy
    bool.  A NaN or inf entry is refused with InvalidGroupElementError.
    """
    u = np.asarray(u, dtype=complex)
    _check_layout(u)
    _check_finite(u)
    flat = u.reshape(-1, 3, 3)
    generic = _screened_generic(flat)
    rest = ~generic
    if rest.any():
        angles = eigenvalue_angles(flat[rest])
        exact = (angle_gap(angles) >= REGULARITY_GAP) & ~angles_have_relation(angles)
        generic[rest] = exact
    return generic.reshape(u.shape[:-2])[()]


def _screened_generic(u: np.ndarray) -> np.ndarray:
    """Per matrix of a finite (n, 3, 3) stack, True where the closed form
    proves it generic in is_generic's sense, False where the exact path
    must decide.

    The roots of lambda^3 - s lambda^2 + e lambda - d come from Cardano's
    formula on the depressed cubic t^3 + P t + Q, lambda = t + s/3, then
    two Newton steps.  Rows that the screen does not admit (see the
    comment on _SCREEN_DISCRIMINANT_FLOOR), whose numbers overflowed, or
    whose cubic is degenerate (Id and omega Id give 0 / 0) are False
    before the relation search, and no numpy warning is raised for them.
    """
    with np.errstate(all="ignore"):
        s, e, d, norm2 = _char_poly_planes(u)
        s3 = s / 3
        p3 = (e - s * s3) / 3
        q2 = ((e - 2 * s3 * s3) * s3 - d) / 2
        disc = q2 * q2 + p3 * p3 * p3
        # The sign that adds, not cancels, in -Q/2 -+ sqrt(D).
        root = np.sqrt(disc)
        root[q2.real * root.real + q2.imag * root.imag < 0] *= -1
        c = (-(q2 + root)) ** (1 / 3)
        ck = c[:, None] * _CUBE_ROOTS_OF_UNITY
        lam = ck - p3[:, None] / ck + s3[:, None]
        s, e, d = s[:, None], e[:, None], d[:, None]
        for _ in range(2):
            lam -= (((lam - s) * lam + e) * lam - d) / ((3 * lam - 2 * s) * lam + e)
        angles = np.angle(lam) / (2 * np.pi)
        angles -= np.floor(angles)
        angles.sort(axis=-1)
        admitted = (np.abs(disc) > _SCREEN_DISCRIMINANT_FLOOR * norm2**3) & (
            (np.square(lam.real) + np.square(lam.imag)).min(axis=-1)
            >= _SCREEN_MODULUS_FLOOR * norm2
        )
        admitted &= np.isfinite(angles).all(axis=-1)
    settled = np.zeros(len(u), dtype=bool)
    angles = angles[admitted]
    settled[admitted] = (
        (angle_gap(angles) >= REGULARITY_GAP + _SCREEN_GAP_MARGIN)
        & (angles[:, 2] <= 1 - _SCREEN_GAP_MARGIN)
        & ~_relation_near(angles)
    )
    return settled


def _relation_near(angles: np.ndarray) -> np.ndarray:
    """Per sorted angle triple of an (n, 3) array, whether some (m1, m2) of
    angles_have_relation's grid may bring m1 th1 + m2 th2 within
    GENERICITY_TOL + _SCREEN_RELATION_SLACK of an integer.

    Each row sorts its 60 values m2 th2 mod 1 (m2 = +-1..+-20) and m1 th1
    mod 1 (m1 = 1..20).  A relation with m1 = 0 or m2 = 0 puts one value
    that close to 0 or 1, the ends of the sorted row.  Any other puts
    m1 th1 and -m2 th2 that close mod 1: both lie in the row, so two
    neighbours in it are at least as close, or both lie near the ends.  So
    a row whose ends and neighbour gaps all exceed the reach has no
    relation.  A row can also read True for a relation outside the grid,
    between two multiples of one angle; it goes to the exact path all the
    same.
    """
    reach = GENERICITY_TOL + _SCREEN_RELATION_SLACK
    values = angles[:, _SCREEN_ANGLE] * _SCREEN_MULTIPLE
    values -= np.floor(values)
    values.sort(axis=-1)
    near = (values[:, 0] <= reach) | (values[:, -1] >= 1 - reach)
    return near | (np.diff(values, axis=-1) <= reach).any(axis=-1)


def character_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The nine character coordinates as a (..., 9) complex array; a and b
    are two stacks of one shape, and a lone pair gives shape (9,).

    Runs on plane-major stacks.  A trace needs only the diagonal of a
    product, tr(x y) = sum_ij x_ij y_ji and tr(x y^H) = sum_ij x_ij
    conj(y_ij), so the only planar products are ab and ba: tr(comm) =
    tr(ab (ba)^H).  The inverse-holonomy traces are the conjugates of their
    partners, which is exact for the conjugate-transpose inverse, so they
    are computed that way rather than through four extra products.
    """
    _check_layout(a, b)
    shape = np.shape(a)[:-2]
    a, b = _plane_major(a), _plane_major(b)
    ab = _planar_product(a, b)
    ba = _planar_product(b, a)
    za, zb, zab = (m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2] for m in (a, b, ab))
    zabinv = (a * np.conjugate(b)).sum(axis=(1, 2))
    zc = (ab * np.conjugate(ba)).sum(axis=(1, 2))
    values = np.stack(
        [
            za,
            zb,
            zab,
            zabinv,
            zc,
            np.conjugate(za),
            np.conjugate(zb),
            np.conjugate(zab),
            np.conjugate(zabinv),
        ],
        axis=-1,
    )
    return values.reshape(shape + (9,))


def character_reals(values: np.ndarray) -> np.ndarray:
    """(..., k) complex character values to (..., 2k) reals, re/im
    interleaved: REAL_COLUMN_NAMES order for all nine coordinates.  The
    result is a float view of the contiguous values, so it shares memory
    with values when they are already C-contiguous."""
    return np.ascontiguousarray(values, dtype=complex).view(float)
