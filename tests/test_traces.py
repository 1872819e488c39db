"""Trace coordinates: the boundary cubic, eigenvalue angles, genericity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_kernels import trace
from su3lab.errors import TraceDomainError
from su3lab.fiber import RepPoint, central_fiber_point
from su3lab.su3 import OMEGA, circle_distance, haar_random
from su3lab.traces import (
    CHARACTER_NAMES,
    angles_have_relation,
    char_poly_roots,
    character_reals,
    character_values,
    delta_defect,
    is_generic,
)

ST_TRACE = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def diag_torus(t1, t2):
    return np.diag(np.exp(2j * np.pi * np.array([t1, t2, -t1 - t2])))


def test_boundary_defect_known_values():
    # Central traces sit on the boundary; 0 is the deepest interior point.
    assert abs(delta_defect(3.0)) <= 1e-12
    assert abs(delta_defect(3.0 * OMEGA)) <= 1e-12
    assert abs(delta_defect(-1.0)) <= 1e-12
    assert delta_defect(0.0) == pytest.approx(-27.0)
    assert delta_defect(4.0) == pytest.approx(5.0)


@settings(max_examples=200, deadline=None)
@given(ST_TRACE)
def test_boundary_defect_symmetries(z):
    # Invariant under conjugation and under the order-three center twist.
    ref = delta_defect(z)
    assert delta_defect(np.conjugate(z)) == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert delta_defect(OMEGA * z) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_haar_traces_stay_in_domain(rng):
    z = trace(haar_random(rng, size=2000))
    assert delta_defect(z).max() <= 1e-9


def test_char_poly_roots_central():
    assert circle_distance(char_poly_roots(3.0), 0.0).max() <= 1e-5
    # 3 omega has all eigenvalues omega: angles (1/3, 1/3, 1/3).
    roots = char_poly_roots(3.0 * OMEGA)
    assert circle_distance(roots, 1.0 / 3.0).max() <= 1e-5


def test_char_poly_roots_match_eigenvalues(rng):
    for _ in range(25):
        u = haar_random(rng)
        z = trace(u)
        angles = char_poly_roots(z)
        # Vieta: the angles reproduce the trace and a unit determinant.
        phases = np.exp(2j * np.pi * angles)
        assert abs(phases.sum() - z) <= 1e-10
        assert abs(phases.prod() - 1.0) <= 1e-10


def test_char_poly_roots_rejects_outside():
    with pytest.raises(TraceDomainError):
        char_poly_roots(4.0)
    with pytest.raises(TraceDomainError):
        char_poly_roots(3.0001)
    # Just beyond a central vertex the defect is below DELTA_BOUNDARY_TOL
    # (third-order zero); the last two overflow the defect to NaN.
    beyond = (3.0001, 3.0001 * OMEGA, 3.0001 * np.conj(OMEGA), 3.001)
    for z in (*beyond, 1e103, 1e200):
        with pytest.raises(TraceDomainError, match="outside the trace domain"):
            char_poly_roots(z)


def test_angles_have_relation_cases():
    third = np.array([1 / 3, 1 / 3, 1 / 3])
    assert angles_have_relation(third)
    assert angles_have_relation(np.zeros(3))
    tau = np.sqrt(2.0) - 1.0
    assert angles_have_relation(np.array([tau, tau, -2 * tau]))
    free = np.array([np.sqrt(2) - 1, np.sqrt(3) - 1, 2 - np.sqrt(2) - np.sqrt(3)])
    assert not angles_have_relation(free)


def test_is_generic_cases():
    assert not is_generic(diag_torus(1 / 3, 1 / 3))
    assert not is_generic(diag_torus(0.0, 0.3))  # repeated eigenvalue 1
    assert is_generic(diag_torus(np.sqrt(2) - 1, np.sqrt(3) - 1))
    stacked = np.stack(
        [diag_torus(1 / 3, 1 / 3), diag_torus(np.sqrt(2) - 1, np.sqrt(3) - 1)]
    )
    flags = is_generic(stacked)
    assert flags.tolist() == [False, True]


def test_character_values_identity_pair():
    vals = character_values(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    assert np.abs(vals - 3.0).max() == 0.0


def test_character_of_central_pair():
    p = central_fiber_point()
    values = character_values(p.a, p.b)
    zc = values[CHARACTER_NAMES.index("tr_comm")]
    # The commutator is a central cube root times the identity.
    assert min(abs(zc - 3 * OMEGA), abs(zc - 3 * np.conjugate(OMEGA))) <= 1e-12
    # Clock and shift are traceless.
    assert abs(values[0]) <= 1e-12
    assert abs(values[1]) <= 1e-12


def test_character_as_reals_order(rng):
    p = RepPoint.from_pair(haar_random(rng), haar_random(rng))
    values = character_values(p.a, p.b)
    reals = character_reals(values)
    assert reals.shape == (18,)
    for k, z in enumerate(values):
        assert reals[2 * k] == pytest.approx(z.real)
        assert reals[2 * k + 1] == pytest.approx(z.imag)


def test_character_reals_is_the_interleaved_view(rng):
    """The reals are the bits of the re/im interleave; on contiguous values
    they are a view, and a column slice of them is copied first."""
    values = character_values(haar_random(rng, size=5), haar_random(rng, size=5))
    interleave = np.empty((5, 18))
    interleave[:, 0::2] = values.real
    interleave[:, 1::2] = values.imag
    reals = character_reals(values)
    assert reals.shape == (5, 18)
    assert np.array_equal(reals, interleave)
    assert np.shares_memory(reals, values)
    gated = character_reals(values[:, :4])
    assert gated.flags.c_contiguous and not np.shares_memory(gated, values)
    assert np.array_equal(gated, interleave[:, :8])


def test_character_conjugation_invariant(rng):
    from su3lab.su3 import dagger

    a, b = haar_random(rng), haar_random(rng)
    g = haar_random(rng)
    base = character_values(a, b)
    moved = character_values(g @ a @ dagger(g), g @ b @ dagger(g))
    assert np.abs(base - moved).max() <= 1e-12
