"""Dehn twist words: homology images, fiber preservation, batch agreement,
and the typed refusals of the word and flow arguments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_kernels import ALLOWED_NEXT, INVERSE_INDEX, random_word_indices_loop
from su3lab import mcg
from su3lab.errors import InvalidArgumentError, Su3LabError
from su3lab.fiber import RepPoint, commutator, fiber_residual
from su3lab.flows import twist_flow
from su3lab.mcg import (
    LETTERS,
    TwistWord,
    apply_word,
    apply_word_stack,
    homology_action,
    is_hyperbolic,
    random_word,
    random_word_indices,
)
from su3lab.su3 import (
    RENORM_GUARD,
    UNITARITY_TOL,
    dagger,
    haar_random,
    renormalize,
    unitarity_defect,
)

ST_WORD = st.lists(st.sampled_from("aAbB"), min_size=1, max_size=12).map(
    lambda ls: TwistWord(tuple(ls))
)


def test_letter_tables_consistent():
    assert set(LETTERS) == set("aAbB")
    for i in range(4):
        assert INVERSE_INDEX[i] not in ALLOWED_NEXT[i]
        assert len(set(ALLOWED_NEXT[i])) == 3


def test_homology_action_oracles():
    # Right twist then left twist: the standard hyperbolic example.
    m = homology_action(TwistWord(("a", "b")))
    assert m.tolist() == [[2, 1], [1, 1]]
    m2 = homology_action(TwistWord(("a", "b", "a")))
    assert m2.tolist() == [[2, 3], [1, 2]]
    # A twist and its inverse cancel in homology.
    m3 = homology_action(TwistWord(("a", "A")))
    assert m3.tolist() == [[1, 0], [0, 1]]


@settings(max_examples=60, deadline=None)
@given(ST_WORD)
def test_homology_action_is_unimodular(word):
    m = homology_action(word)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert det == 1


def test_is_hyperbolic():
    assert is_hyperbolic(homology_action(TwistWord(("a", "b"))))
    assert not is_hyperbolic(homology_action(TwistWord(("a",))))  # parabolic
    assert not is_hyperbolic(np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        is_hyperbolic(np.array([[2, 0], [0, 1]]))  # det 2, not in the group


def test_homology_action_is_exact_past_int64():
    """Entries of (ab)^k are Fibonacci numbers; at k = 50 they pass 2**63,
    where int64 products wrap and a float determinant is far from 1."""
    m = homology_action(TwistWord(tuple("ab" * 20)))
    assert m[0, 0] + m[1, 1] == 228_826_127
    assert is_hyperbolic(m)
    m = homology_action(TwistWord(tuple("ab" * 50)))
    assert m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == 1
    assert m[0, 0] + m[1, 1] == 792_070_839_848_372_253_127
    assert is_hyperbolic(m)


def test_twist_word_parsing():
    w = TwistWord.parse("abA")
    assert w.letters == ("a", "b", "A")
    assert str(w) == "abA"
    assert len(w.letters) == 3
    with pytest.raises(ValueError):
        TwistWord.parse("abx")
    # The empty word is the identity mapping class.
    assert homology_action(TwistWord(())).tolist() == [[1, 0], [0, 1]]


def test_random_word_avoids_cancellation(rng):
    for _ in range(20):
        w = random_word(30, rng)
        assert len(w.letters) == 30
        for cur, nxt in zip(w.letters, w.letters[1:]):
            assert nxt != LETTERS[INVERSE_INDEX[LETTERS.index(cur)]]


def test_random_word_indices_shape_and_range(rng):
    idx = random_word_indices(7, 50, rng)
    assert idx.shape == (7, 50)
    assert idx.min() >= 0 and idx.max() < 4
    for row in idx:
        for cur, nxt in zip(row, row[1:]):
            assert nxt != INVERSE_INDEX[cur]


@pytest.mark.parametrize("seed", range(5))
def test_random_word_indices_matches_letter_loop(seed):
    # The position-major table loop gives the reference's indices and leaves
    # the generator where the reference does, for empty stacks and empty
    # words too.
    cases = [(c, n) for c in (1, 2, 3, 7, 1000) for n in (0, 1, 2, 3, 8, 200)]
    for count, length in cases + [(10_000, 24), (0, 5)]:
        fast = np.random.Generator(np.random.PCG64(seed))
        loop = np.random.Generator(np.random.PCG64(seed))
        got = random_word_indices(count, length, fast)
        want = random_word_indices_loop(count, length, loop)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (count, length)
        assert fast.integers(1 << 62, size=4).tolist() == loop.integers(
            1 << 62, size=4
        ).tolist()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("length", [0, 1, 2, 3, 200])
def test_random_word_matches_one_row_letter_loop(seed, length):
    # random_word walks the table in Python over the draws that a one-row
    # stack makes: the same letters and the same generator state after.
    fast = np.random.Generator(np.random.PCG64(seed))
    loop = np.random.Generator(np.random.PCG64(seed))
    word = random_word(length, fast)
    want = random_word_indices_loop(1, length, loop)[0]
    assert word.letters == tuple(LETTERS[i] for i in want)
    assert fast.bit_generator.state == loop.bit_generator.state


def test_apply_word_single_letters(rng):
    a, b = haar_random(rng), haar_random(rng)
    p = RepPoint.from_pair(a, b)
    qa = apply_word(TwistWord(("a",)), p)
    assert np.abs(qa.b - b @ a).max() < 1e-12
    assert np.abs(qa.a - a).max() < 1e-12
    qA = apply_word(TwistWord(("A",)), p)
    assert np.abs(qA.b - b @ dagger(a)).max() < 1e-12
    qb = apply_word(TwistWord(("b",)), p)
    assert np.abs(qb.a - a @ b).max() < 1e-12
    assert np.abs(qb.b - b).max() < 1e-12
    qB = apply_word(TwistWord(("B",)), p)
    assert np.abs(qB.a - a @ dagger(b)).max() < 1e-12


def test_apply_word_preserves_fiber(rng):
    p = RepPoint.from_pair(haar_random(rng), haar_random(rng))
    w = random_word(400, rng)
    q = apply_word(w, p)
    assert q.residual() < 1e-11
    assert unitarity_defect(q.a) < 1e-12
    assert unitarity_defect(q.b) < 1e-12


def test_inverse_word_undoes(rng):
    p = RepPoint.from_pair(haar_random(rng), haar_random(rng))
    w = TwistWord.parse("abAB")
    back = TwistWord(
        tuple(LETTERS[INVERSE_INDEX[LETTERS.index(l)]] for l in reversed(w.letters))
    )
    q = apply_word(back, apply_word(w, p))
    assert np.abs(q.a - p.a).max() < 1e-11
    assert np.abs(q.b - p.b).max() < 1e-11


def test_apply_word_stack_matches_single(rng):
    a = haar_random(rng, size=6)
    b = haar_random(rng, size=6)
    c = commutator(a, b)
    idx = random_word_indices(6, 60, rng)
    a2, b2 = apply_word_stack(idx, a, b)
    for i in range(6):
        w = TwistWord(tuple(LETTERS[j] for j in idx[i]))
        q = apply_word(w, RepPoint.from_pair(a[i], b[i]))
        assert np.abs(a2[i] - q.a).max() < 1e-10
        assert np.abs(b2[i] - q.b).max() < 1e-10
    assert fiber_residual(a2, b2, c).max() < 1e-11


def test_apply_word_stack_long_word_residual(rng):
    a = haar_random(rng, size=8)
    b = haar_random(rng, size=8)
    c = commutator(a, b)
    idx = random_word_indices(8, 1000, rng)
    a2, b2 = apply_word_stack(idx, a, b)
    assert fiber_residual(a2, b2, c).max() < 1e-10


def edge_pair(rng, kind: str):
    """A Haar pair moved off SU(3) as far as RepPoint accepts: both scaled
    by 1 + 2e-10 (determinants 6e-10 off 1, raw commutator 8e-10 off its
    label), or each times Id + t h for a Hermitian h, with t making the
    larger unitarity defect and the fiber residual 0.99 UNITARITY_TOL."""
    u, v = haar_random(rng), haar_random(rng)
    if kind == "scaled":
        return u * (1 + 2e-10), v * (1 + 2e-10)
    h = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    h = (h + dagger(h)) / 2

    def moved(t):
        a, b = u @ (np.eye(3) + t * h[0]), v @ (np.eye(3) + t * h[1])
        residual = fiber_residual(a, b, commutator(a, b))
        return a, b, max(unitarity_defect(a), unitarity_defect(b), residual)

    t = 1e-10 * 0.99 * UNITARITY_TOL / moved(1e-10)[2]
    return moved(t)[:2]


@pytest.mark.parametrize("kind", ["scaled", "hermitian"])
def test_words_take_pairs_at_the_unitarity_edge(rng, monkeypatch, kind):
    """A pair UNITARITY_TOL off the group is a RepPoint.  On "babababa" its
    b multiplies 55 factors before the first renormalization, which gets
    a Gram defect inside RENORM_GUARD (2.2e-8 on the scaled pair): both
    word engines take it, alone and on a 64-letter word, and land on the
    fiber."""
    defects = []

    def recording(u):
        defects.append(float(np.abs(dagger(u) @ u - np.eye(3)).max()))
        return renormalize(u)

    monkeypatch.setattr(mcg, "renormalize", recording)
    p = RepPoint.from_pair(*edge_pair(rng, kind))
    for word in (TwistWord.parse("babababa"), random_word(64, rng)):
        q = apply_word(word, p)
        assert q.residual() <= 1e-12
        indices = np.array([[LETTERS.index(l) for l in word.letters]])
        a, b = apply_word_stack(indices, p.a[None], p.b[None])
        assert fiber_residual(a, b, p.c).max() <= 1e-12
        assert unitarity_defect(a) <= 1e-12 and unitarity_defect(b) <= 1e-12
    assert max(defects) <= RENORM_GUARD
    if kind == "scaled":
        assert max(defects) == pytest.approx(2.2e-8, rel=0.01)


@pytest.mark.parametrize(
    "indices",
    [np.zeros(4, dtype=np.int8), [[[0, 1, 2]]] * 4, np.zeros((4, 2)) + 0.5],
    ids=["1-D array", "nested 3-D list", "float array"],
)
def test_apply_word_stack_refuses_malformed_indices(rng, indices):
    """Letter indices must be a 2-D integer array: anything else raises
    ValueError before the engine reads it; a ragged list already fails in
    np.asarray, with numpy's ValueError."""
    a, b = haar_random(rng, size=4), haar_random(rng, size=4)
    with pytest.raises(ValueError, match="letter indices must be a 2-D integer array"):
        apply_word_stack(indices, a, b)
    with pytest.raises(ValueError):
        apply_word_stack([[0, 1, 2], [0, 1], [0], []], a, b)


def test_apply_word_stack_takes_a_nested_list(rng):
    """A well-formed nested list is read as the 2-D integer array it spells."""
    a, b = haar_random(rng, size=4), haar_random(rng, size=4)
    got = apply_word_stack([[0, 3, 0]] * 4, a, b)
    want = apply_word_stack(np.array([[0, 3, 0]] * 4, dtype=np.int8), a, b)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


def _haar_pairs(n: int):
    rng = np.random.Generator(np.random.PCG64(43))
    return haar_random(rng, size=n), haar_random(rng, size=n)


def _haar_point():
    a, b = _haar_pairs(1)
    return RepPoint.from_pair(a[0], b[0])


# The word and flow arguments outside their domains, one per refusal.
ARGUMENT_REFUSALS = {
    "twist_word_letter": lambda: TwistWord(("a", "x")),
    "is_hyperbolic_determinant": lambda: is_hyperbolic(np.array([[2, 0], [0, 1]])),
    "word_stack_index_shape": lambda: apply_word_stack(np.zeros(2, dtype=np.int8), *_haar_pairs(2)),
    "word_stack_index_range": lambda: apply_word_stack(np.full((2, 3), 4), *_haar_pairs(2)),
    "twist_flow_curve": lambda: twist_flow(_haar_point(), "gamma", "re", 1.0),
    "twist_flow_part": lambda: twist_flow(_haar_point(), "alpha", "abs", 1.0),
    "twist_flow_time": lambda: twist_flow(_haar_point(), "alpha", "re", np.inf),
}


@pytest.mark.parametrize("case", ARGUMENT_REFUSALS)
def test_argument_refusals_are_typed(case):
    """Each refusal is an InvalidArgumentError: a Su3LabError, so the command
    line front end reports it, and still a ValueError."""
    with pytest.raises(InvalidArgumentError) as info:
        ARGUMENT_REFUSALS[case]()
    assert isinstance(info.value, Su3LabError) and isinstance(info.value, ValueError)
