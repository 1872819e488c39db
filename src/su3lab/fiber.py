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

from .errors import FiberMismatchError, InvalidArgumentError, InvalidGroupElementError
from .su3 import (
    IDENTITY,
    OMEGA,
    _check_finite,
    _check_layout,
    _cholesky_planes,
    _entries,
    _matrix,
    _planar_product,
    _plane_major,
    _product3,
    _product3_dagger,
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

# _full_rank_rows certifies full rank where the smaller Gram matrix less
# this floor times max(1, |m|_F^2) is positive definite: s_min >= 1e-3
# max(1, |m|_F), five decades above both rank thresholds.
_FULL_RANK_FLOOR = 1e-6

_EYE8 = np.eye(8)

# Cyclic shift used by base_point: maps e1 -> e3 -> e2 -> e1, so conjugating
# a diagonal matrix by it shifts the diagonal entries up by one slot.
_SHIFT = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
_SHIFT.setflags(write=False)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kappa(a, b) = a b a^-1 b^-1: renormalize of the raw product that
    fiber_residual measures; a and b share one shape.  Inverses are
    conjugate transposes, exact for unitary input.
    """
    return renormalize(_raw_commutator(a, b))


def fiber_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Entrywise max distance from c of the raw product a b a^-1 b^-1 that
    commutator renormalizes; accepts two stacks of one shape, with labels
    c that broadcast against them, and a single pair gives a numpy scalar.
    """
    _check_layout(c)
    return np.abs(_raw_commutator(a, b) - c).max(axis=(-2, -1))


def _raw_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b (b a)^H for two stacks of one shape, as a new array of that shape.

    Stacks run on planes: three planar products, ab, ba and ab (ba)^H.  A
    lone pair runs the same three products on its entries as Python
    complex numbers, as renormalize does: on planes it cost 9x as much,
    and every RepPoint pays it once.
    """
    _check_layout(a, b)
    if np.ndim(a) == 2:
        x, y = _entries(a), _entries(b)
        return _matrix(_product3_dagger(_product3(x, y), _product3(y, x)))
    shape = np.shape(a)
    a, b = _plane_major(a), _plane_major(b)
    # An overflowing or non-finite entry gives NaN or inf; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        comm = _planar_product(_planar_product(a, b), dagger(_planar_product(b, a)))
    return comm.reshape(shape)


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
        """Wrap a pair, computing its own commutator as the fiber label; a
        and b are checked first, so a pair off the group, NaN or inf
        included, raises InvalidGroupElementError as RepPoint does."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        assert_special_unitary(a)
        assert_special_unitary(b)
        return cls(a=a, b=b, c=commutator(a, b))

    def residual(self) -> float:
        return float(fiber_residual(self.a, self.b, self.c))


def d_kappa_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 8x16 real matrix of the differential of kappa at (a, b).

    Columns 0..7 act on the first-slot direction X, columns 8..15 on the
    second-slot direction Y.  In the orthonormal basis, Ad of an inverse is
    the transpose.  Accepts two stacks of one shape.
    """
    _check_layout(a, b)
    return _d_kappa_from_adjoints(adjoint_matrix(a), adjoint_matrix(b))


def _d_kappa_from_adjoints(ad_a: np.ndarray, ad_b: np.ndarray) -> np.ndarray:
    """d_kappa_matrix from the adjoint stacks Ad(a) and Ad(b), as the one
    product Ad(ba) [Ad(b)^T - I | I - Ad(a)^T].  The differences are
    written through transposed views of the blocks, with no temporary;
    reading Ad transposed instead took 20 % longer."""
    blocks = np.empty(ad_a.shape[:-1] + (16,))
    np.subtract(ad_b, _EYE8, out=blocks[..., :8].swapaxes(-1, -2))
    np.subtract(_EYE8, ad_a, out=blocks[..., 8:].swapaxes(-1, -2))
    return ad_b @ ad_a @ blocks


def d_kappa_rank(m: np.ndarray) -> np.ndarray:
    """Numerical rank of real differential matrices by singular value
    threshold.

    The threshold is anchored at unit scale as well as at the largest
    singular value: the differential's blocks are built from orthogonal
    matrices, so a matrix that is all roundoff has rank 0, not the count
    of its noise values.  Each rank is the SVD's: a matrix that
    _full_rank_rows certifies has s_min >= 1e-3 max(1, |m|_F), five
    decades above RANK_TOL max(s_0, 1), so its SVD would count every
    singular value, and only the other matrices run the SVD.  Accepts
    stacks; a single matrix gives a numpy integer.  A NaN or inf entry is
    refused with InvalidArgumentError.
    """
    m = np.asarray(m, dtype=float)
    _check_finite(m, error=InvalidArgumentError)
    return _rank_rows(m, lambda s: s > RANK_TOL * np.maximum(s[..., :1], 1.0))


def centralizer_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dimension of the joint fixed space of Ad(a) and Ad(b).

    Computed as the joint nullspace of the stacked 16x8 matrix S, with
    singular values above NULLSPACE_TOL counted as nonzero.  Each count is
    the SVD's: a matrix that _full_rank_rows certifies has s_min >= 1e-3,
    five decades above NULLSPACE_TOL, so its nullspace is 0 without an
    SVD.  a and b share one shape (an integer array results; a pair gives
    a numpy integer).
    """
    _check_layout(a, b)
    return _intersection_from_adjoints(adjoint_matrix(a), adjoint_matrix(b))


def _intersection_from_adjoints(ad_a: np.ndarray, ad_b: np.ndarray) -> np.ndarray:
    """centralizer_intersection from the adjoint stacks Ad(a) and Ad(b)."""
    stacked = np.empty(ad_a.shape[:-2] + (16, 8))
    np.subtract(ad_a, _EYE8, out=stacked[..., :8, :])
    np.subtract(ad_b, _EYE8, out=stacked[..., 8:, :])
    return 8 - _rank_rows(stacked, lambda s: s > NULLSPACE_TOL)


def _rank_rows(m: np.ndarray, nonzero) -> np.ndarray:
    """The count of singular values that nonzero(s) keeps, for each matrix
    of m: min(p, q) for the (..., p, q) matrices _full_rank_rows
    certifies, and the SVD's count, with nonzero read on the (rows, k)
    singular values, for the others alone."""
    flat = m.reshape((-1,) + m.shape[-2:])
    rank = np.full(flat.shape[0], min(m.shape[-2:]), dtype=np.intp)
    rest = ~_full_rank_rows(flat)
    if rest.any():
        s = np.linalg.svd(flat[rest], compute_uv=False)
        rank[rest] = np.sum(nonzero(s), axis=-1)
    return rank.reshape(m.shape[:-2])[()]


def _full_rank_rows(m: np.ndarray) -> np.ndarray:
    """Per matrix of an (n, p, q) stack, whether it certainly has full
    rank k = min(p, q): True where the k x k Gram matrix G (m m^T or
    m^T m) less _FULL_RANK_FLOOR max(1, |m|_F^2) Id has a Cholesky factor
    with every pivot > 0 (su3._cholesky_planes).

    A Cholesky factorization that runs to completion proves its matrix
    positive definite up to a backward error of a few ulps times |G|, so
    a True row has s_min^2 above the floor, far above the roundoff of G and
    of its factor.  The factor answers each row alone.  A NaN or inf entry
    makes a diagonal entry of G, so |m|_F^2 and the floor, NaN or inf, and
    so the first pivot NaN or -inf: its row is False.
    """
    p, q = m.shape[-2:]
    diag = np.arange(min(p, q))
    with np.errstate(all="ignore"):
        mt = np.swapaxes(m, -1, -2)
        gram = m @ mt if p <= q else mt @ m
        scale = np.maximum(gram[:, diag, diag].sum(axis=-1), 1.0)
        return _cholesky_planes(gram, _FULL_RANK_FLOOR * scale)


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
    if u.shape != (3, 3):
        raise InvalidGroupElementError("is_central takes a single 3x3 matrix")
    d = u[0, 0]
    off = max(np.abs(u - d * IDENTITY).max(), abs(d**3 - 1.0))
    return bool(off <= CENTRAL_LABEL_TOL)
