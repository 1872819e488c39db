"""Reference kernels for tests: the spectral exponential and SVD polar
renormalization that the closed-form kernels in su3lab.su3 replaced, and
the per-letter table draw that su3lab.mcg.random_word_indices replaced.

Plain LAPACK formulations with no branches and a plain table loop, kept
only to check the fast kernels against; nothing in the package imports
them.
"""

import numpy as np

from su3lab.su3 import assert_algebra_element, dagger


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
