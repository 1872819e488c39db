"""The twist action on pairs: generator moves, words over them, and the
induced integer-matrix action on first homology.

The two generator moves and their letter names:

    "a"  (a, b) -> (a, b a)      "A"  its inverse  (a, b) -> (a, b a^-1)
    "b"  (a, b) -> (a b, b)      "B"  its inverse  (a, b) -> (a b^-1, b)

Both preserve the commutator exactly: a (ba) a^-1 (ba)^-1 = a b a^-1 b^-1
and (ab) b (ab)^-1 b^-1 = a b a^-1 b^-1 as algebraic identities, so orbit
drift is purely floating point roundoff, controlled by periodic
renormalization.

On commuting diagonal pairs the moves act on the angle row vector
(theta_a, theta_b) by right multiplication with an integer matrix; the
matrices below are pinned by that consistency requirement (letter "a" adds
theta_a into theta_b, letter "b" adds theta_b into theta_a), and a word maps
to the left-to-right product of its letter matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiber import RepPoint
from .su3 import dagger, renormalize

# Letter products feed each element's norm deviation into the other, so the
# distance from the group compounds near-geometrically with word length
# (about 1.6^k on alternating letters), and whatever accumulates between
# renormalizations is baked into the fiber residual for good.  A cadence of
# 8 keeps each cycle's contribution at the roundoff floor; the flow engine
# can afford a longer cadence because its factors are exactly unitary.
WORD_RENORM_CADENCE = 8

LETTERS = ("a", "A", "b", "B")
INVERSE_LETTER = {"a": "A", "A": "a", "b": "B", "B": "b"}

# Letter indices for the batched engines; INVERSE_INDEX mirrors INVERSE_LETTER.
INVERSE_INDEX = np.array([1, 0, 3, 2])

# ALLOWED_NEXT[i] lists the three letter indices that may follow letter i
# without an immediate cancellation.
ALLOWED_NEXT = np.array(
    [[j for j in range(4) if j != INVERSE_INDEX[i]] for i in range(4)]
)

H_ALPHA = np.array([[1, 1], [0, 1]], dtype=np.int64)
H_BETA = np.array([[1, 0], [1, 1]], dtype=np.int64)
_LETTER_MATRIX = {
    "a": H_ALPHA,
    "A": np.array([[1, -1], [0, 1]], dtype=np.int64),
    "b": H_BETA,
    "B": np.array([[1, 0], [-1, 1]], dtype=np.int64),
}


@dataclass(frozen=True)
class TwistWord:
    """A finite word in the four generator letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        bad = [l for l in self.letters if l not in LETTERS]
        if bad:
            raise ValueError(f"unknown letters {bad!r}; alphabet is {LETTERS}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    @classmethod
    def parse(cls, text: str) -> "TwistWord":
        return cls(tuple(text.strip()))


def apply_word(word: TwistWord, p: RepPoint) -> RepPoint:
    """Apply the word's letters left to right, renormalizing on cadence."""
    a, b = p.a, p.b
    for i, letter in enumerate(word.letters):
        if letter == "a":
            b = b @ a
        elif letter == "A":
            b = b @ dagger(a)
        elif letter == "b":
            a = a @ b
        else:
            a = a @ dagger(b)
        if (i + 1) % WORD_RENORM_CADENCE == 0:
            a = renormalize(a)
            b = renormalize(b)
    return RepPoint(a=a, b=b, c=p.c)


def homology_action(word: TwistWord) -> np.ndarray:
    """Image of a word in the determinant-one 2x2 integer matrices.

    Left-to-right product of the letter matrices, matching apply_word's
    composition order, so the map is a monoid homomorphism.
    """
    m = np.eye(2, dtype=np.int64)
    for letter in word.letters:
        m = m @ _LETTER_MATRIX[letter]
    return m


def is_hyperbolic(m: np.ndarray) -> bool:
    """Whether a determinant-one integer matrix has off-circle eigenvalues,
    equivalently |trace| > 2."""
    m = np.asarray(m)
    if round(float(np.linalg.det(m))) != 1:
        raise ValueError("homology matrices must have determinant 1")
    return abs(int(m[0, 0]) + int(m[1, 1])) > 2


def random_word(length: int, rng: np.random.Generator) -> TwistWord:
    """Uniform random word with no letter followed by its own inverse."""
    if length <= 0:
        return TwistWord(())
    idx = random_word_indices(1, length, rng)[0]
    return TwistWord(tuple(LETTERS[i] for i in idx))


def random_word_indices(count: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Letter-index arrays for `count` independent random words.

    Shape (count, length); the first letter is uniform over all four, each
    later letter uniform over the three that do not cancel the previous one.
    """
    out = np.empty((count, max(length, 0)), dtype=np.int8)
    if length <= 0:
        return out
    out[:, 0] = rng.integers(4, size=count)
    for j in range(1, length):
        out[:, j] = ALLOWED_NEXT[out[:, j - 1], rng.integers(3, size=count)]
    return out


def apply_word_stack(
    indices: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply per-row letter index sequences to stacked pairs.

    indices has shape (n, length) over the letter order "a", "A", "b", "B";
    rows evolve independently.  Renormalizes on cadence.  Returns new stacks.
    """
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    for j in range(indices.shape[1]):
        col = indices[:, j]
        m0 = col == 0
        m1 = col == 1
        m2 = col == 2
        m3 = col == 3
        b[m0] = b[m0] @ a[m0]
        b[m1] = b[m1] @ dagger(a[m1])
        a[m2] = a[m2] @ b[m2]
        a[m3] = a[m3] @ dagger(b[m3])
        if (j + 1) % WORD_RENORM_CADENCE == 0:
            a = renormalize(a)
            b = renormalize(b)
    return a, b
