"""Reference kernels for tests: the spectral exponential and SVD polar
renormalization that the closed-form kernels in su3lab.su3 replaced.

Plain LAPACK formulations with no branches, kept only to check the fast
kernels against; nothing in the package imports them.
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
