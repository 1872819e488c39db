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

from dataclasses import dataclass

import numpy as np

from .errors import TraceDomainError
from .fiber import RepPoint
from .su3 import REGULARITY_GAP, angle_gap, dagger, eigenvalue_angles, trace

# Character coordinate order; fixed, because it is also the CSV schema.
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


def delta_defect(z: complex | np.ndarray) -> float | np.ndarray:
    """Boundary defect of the trace domain: negative inside, zero on the
    boundary, positive outside.  Accepts arrays."""
    z = np.asarray(z, dtype=complex)
    sq = z.real**2 + z.imag**2
    out = sq * sq - 8 * np.real(z**3) + 18 * sq - 27
    return float(out) if out.ndim == 0 else out


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
    if defect > DELTA_BOUNDARY_TOL:
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


def angles_have_relation(
    angles: np.ndarray, height: int = 20, tol: float = 1e-9
) -> bool | np.ndarray:
    """Whether any integer vector (m0, m1, m2), not all zero, with entries
    bounded by height, satisfies |m1 th1 + m2 th2 + m0| <= tol.

    The third angle never needs to enter: it differs from -(th1 + th2) by an
    integer, so relations involving it reduce to this form.  Brute force
    over the (2 height + 1)^2 grid; accepts stacked angle triples.
    """
    angles = np.asarray(angles, dtype=float)
    m = np.arange(-height, height + 1)
    m1 = np.repeat(m, m.size)
    m2 = np.tile(m, m.size)
    combo = np.tensordot(angles[..., 0], m1, axes=0) + np.tensordot(
        angles[..., 1], m2, axes=0
    )
    m0 = -np.round(combo)
    hit = (np.abs(combo + m0) <= tol) & (np.abs(m0) <= height)
    hit &= ~((m1 == 0) & (m2 == 0) & (m0 == 0))
    out = hit.any(axis=-1)
    return bool(out) if out.ndim == 0 else out


def is_generic(u: np.ndarray, height: int = 20, tol: float = 1e-9) -> bool | np.ndarray:
    """Whether u is regular with rationally independent eigenvalue angles,
    up to the given search height and tolerance.

    Generic elements generate dense subgroups of their maximal torus; the
    truncated search can reject a truly generic element (harmless for
    experiment seeding) but a false positive would need a relation of
    height above the bound, invisible at orbit lengths this package runs.
    Accepts stacks.
    """
    angles = eigenvalue_angles(u)
    out = (angle_gap(angles) >= REGULARITY_GAP) & ~angles_have_relation(
        angles, height, tol
    )
    return bool(out) if np.ndim(out) == 0 else out


def character_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The nine character coordinates as a (..., 9) complex array.

    The inverse-holonomy traces are the conjugates of their partners, which
    is exact for the conjugate-transpose inverse, so they are computed that
    way rather than through four extra products.
    """
    ab = a @ b
    abinv = a @ dagger(b)
    comm = ab @ dagger(b @ a)
    za, zb = trace(a), trace(b)
    zab, zabinv = trace(ab), trace(abinv)
    zc = trace(comm)
    return np.stack(
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


def character_reals(values: np.ndarray) -> np.ndarray:
    """(..., 9) complex character values to (..., 18) reals, in
    REAL_COLUMN_NAMES order."""
    out = np.empty(values.shape[:-1] + (18,), dtype=float)
    out[..., 0::2] = values.real
    out[..., 1::2] = values.imag
    return out


@dataclass(frozen=True)
class Character:
    """The nine trace coordinates of a pair, in CHARACTER_NAMES order.

    Coordinates live in the trace domain, and each inverse-holonomy
    coordinate is the conjugate of its partner.
    """

    values: tuple

    def __post_init__(self):
        if len(self.values) != 9:
            raise ValueError("a character has exactly nine coordinates")
        worst = float(np.max(delta_defect(np.array(self.values))))
        if worst > DELTA_BOUNDARY_TOL:
            raise TraceDomainError(
                f"character coordinate leaves the trace domain by {worst:.3e}"
            )
        pairs = np.array(self.values)
        mismatch = np.abs(pairs[5:] - np.conjugate(pairs[:4])).max()
        if mismatch > 1e-12:
            raise ValueError(
                f"inverse traces fail conjugate pairing by {mismatch:.3e}"
            )


def character(p: RepPoint) -> Character:
    """The nine-trace character of a pair."""
    return Character(values=tuple(complex(z) for z in character_values(p.a, p.b)))


def character_distance(x: Character, y: Character) -> float:
    """Max over coordinates of the complex absolute difference."""
    return float(
        np.abs(np.array(x.values) - np.array(y.values)).max()
    )
