"""The commutator map on SU(3) pairs, its fibers and differential, and
distinguished points on every fiber.

kappa(a, b) = a b a^-1 b^-1.  For a fixed group element c, the fiber over c
is the set of pairs (a, b) with kappa(a, b) = c; RepPoint stores such a pair
together with its fiber label and enforces the residual bound on
construction.

The differential of kappa at (a, b), written in the fixed orthonormal basis
of two copies of the algebra, is the 8x16 real matrix of

    D(X, Y) = Ad(ba) ((Ad(b^-1) - I) X + (I - Ad(a^-1)) Y),

whose rank is 8 exactly when the centralizer algebras of a and b intersect
trivially: the image of Ad(g) - I is the orthogonal complement of its fixed
space, so the column span of D is the sum of those two complements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiberMismatchError, InvalidGroupElementError
from .su3 import (
    IDENTITY,
    OMEGA,
    _broadcast_planes,
    _check_layout,
    _planar_product,
    _stack_view,
    adjoint_matrix,
    assert_special_unitary,
    dagger,
    renormalize,
    unitary_eigensystem,
)

FIBER_TOL = 1e-9

# A trace label on a triple characteristic root resolves with about
# cube-root-of-eps clustering error (1e-5), so the centrality test for
# labels must sit above that floor; the central fibers are 5.2 apart.
CENTRAL_LABEL_TOL = 1e-4

# Rank decisions on the 8x16 differential: singular values below this
# fraction of the largest one count as zero.
RANK_TOL = 1e-8

# Nullspace decisions on Ad(g) - I: absolute threshold, far above roundoff
# (~1e-14) and below the smallest nonzero singular value a regular element
# can produce away from the regularity boundary.
NULLSPACE_TOL = 1e-8

_EYE8 = np.eye(8)

# Cyclic shift used by base_point: maps e1 -> e3 -> e2 -> e1, so conjugating
# a diagonal matrix by it shifts the diagonal entries up by one slot.
_SHIFT = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
_SHIFT.setflags(write=False)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kappa(a, b) = a b a^-1 b^-1, renormalized; accepts stacks.

    Inverses are conjugate transposes, exact for unitary input.
    """
    _check_layout(a, b)
    return renormalize(a @ b @ dagger(b @ a))


def fiber_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Entrywise max distance of the raw product a b a^-1 b^-1 from c;
    accepts stacks that broadcast, and a single pair gives a numpy scalar.

    Stacks run on planes (su3._broadcast_planes): three planar products,
    ab, ba and ab (ba)^H.  A lone pair takes one np.dot per product, as
    renormalize does: on planes it cost 9x as much, and every RepPoint
    pays it once.
    """
    _check_layout(a, b, c)
    if np.ndim(a) == 2 and np.ndim(b) == 2:
        return np.abs(np.dot(np.dot(a, b), dagger(np.dot(b, a))) - c).max(axis=(-2, -1))
    (pa, pb), shape = _broadcast_planes(a, b)
    ab = _planar_product(pa, pb)
    ba = _planar_product(pb, pa)
    comm = _planar_product(ab, np.conjugate(ba.transpose(1, 0, 2)))
    return np.abs(_stack_view(comm).reshape(shape + (3, 3)) - c).max(axis=(-2, -1))


@dataclass(frozen=True)
class RepPoint:
    """A pair (a, b) of special unitary matrices with its fiber label c.

    Construction validates that all three are single 3x3 special unitary
    matrices and that kappa(a, b) matches c within FIBER_TOL.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for m in (self.a, self.b, self.c):
            if np.shape(m) != (3, 3):
                raise InvalidGroupElementError(
                    f"a RepPoint holds single 3x3 matrices, got shape {np.shape(m)}"
                )
            assert_special_unitary(m)
        r = fiber_residual(self.a, self.b, self.c)
        # Written as `not <=` so that a NaN residual is refused too.
        if not r <= FIBER_TOL:
            raise FiberMismatchError(
                f"kappa(a, b) misses the fiber label by {r:.3e}"
                f" (tolerance {FIBER_TOL:.1e})"
            )

    @classmethod
    def from_pair(cls, a: np.ndarray, b: np.ndarray) -> "RepPoint":
        """Wrap a pair, computing its own commutator as the fiber label."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        return cls(a=a, b=b, c=commutator(a, b))

    def residual(self) -> float:
        return float(fiber_residual(self.a, self.b, self.c))


def d_kappa_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 8x16 real matrix of the differential of kappa at (a, b).

    Columns 0..7 act on the first-slot direction X, columns 8..15 on the
    second-slot direction Y.  In the orthonormal basis, Ad of an inverse is
    the transpose.  Accepts stacks.
    """
    ad_a = adjoint_matrix(a)
    ad_b = adjoint_matrix(b)
    ad_ba = ad_b @ ad_a
    block_x = ad_ba @ (np.swapaxes(ad_b, -1, -2) - _EYE8)
    block_y = ad_ba @ (_EYE8 - np.swapaxes(ad_a, -1, -2))
    return np.concatenate([block_x, block_y], axis=-1)


def d_kappa_rank(m: np.ndarray) -> np.ndarray:
    """Numerical rank of differential matrices by singular value threshold.

    The threshold is anchored at unit scale as well as at the largest
    singular value: the differential's blocks are built from orthogonal
    matrices, so a matrix that is all roundoff has rank 0, not the count
    of its noise values.  Accepts stacks; a single matrix gives a numpy
    integer.
    """
    s = np.linalg.svd(m, compute_uv=False)
    top = np.maximum(s[..., 0], 1.0)
    return np.sum(s > RANK_TOL * top[..., None], axis=-1)


def centralizer_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dimension of the joint fixed space of Ad(a) and Ad(b).

    Computed as the joint nullspace of the stacked 16x8 matrix; accepts
    stacks (returns an integer array; a single pair gives a numpy integer).
    """
    stacked = np.concatenate(
        [adjoint_matrix(a) - _EYE8, adjoint_matrix(b) - _EYE8], axis=-2
    )
    s = np.linalg.svd(stacked, compute_uv=False)
    return 8 - np.sum(s > NULLSPACE_TOL, axis=-1)


def base_point(c: np.ndarray) -> RepPoint:
    """A distinguished solution of kappa(a, b) = c, for any group element c.

    Diagonalize c = u diag(c1, c2, c3) dagger(u) with eigenvalues sorted by
    angle.  In that basis the cyclic shift and a diagonal matrix solve the
    equation: kappa(shift, diag(b1, b2, b3)) = diag(b2/b1, b3/b2, b1/b3), so
    b = (b1, c1 b1, c1 c2 b1) works, and b1 = (c1^2 c2)^(-1/3) (principal
    cube root of the inverse, argument in (-pi/3, pi/3]) fixes det b = 1.
    Conjugating the pair back by u gives the result.
    """
    c = np.asarray(c, dtype=complex)
    assert_special_unitary(c)
    angles, vectors = unitary_eigensystem(c)
    lam = np.exp(2j * np.pi * angles)
    b1 = np.exp(np.log(1.0 / (lam[0] ** 2 * lam[1])) / 3.0)
    bdiag = np.array([b1, lam[0] * b1, lam[0] * lam[1] * b1])
    a = vectors @ _SHIFT @ dagger(vectors)
    b = (vectors * bdiag) @ dagger(vectors)
    return RepPoint(a=a, b=b, c=c)


def central_fiber_point() -> RepPoint:
    """The distinguished pair generating the fiber over omega Id: a diagonal
    order-three element and the cyclic shift e1 -> e2 -> e3 -> e1."""
    a = np.diag([1.0 + 0j, OMEGA, OMEGA**2])
    b = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    return RepPoint(a=a, b=b, c=OMEGA * IDENTITY)


def is_central(u: np.ndarray) -> bool:
    """Whether one group element is omega^k Id, within CENTRAL_LABEL_TOL."""
    u = np.asarray(u, dtype=complex)
    d = u[0, 0]
    off = max(np.abs(u - d * IDENTITY).max(), abs(d**3 - 1.0))
    return bool(off <= CENTRAL_LABEL_TOL)
