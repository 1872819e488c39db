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

from .errors import InvalidGroupElementError
from .fiber import RepPoint
from .su3 import (
    _planar_product,
    _planes_view,
    _stack_view,
    _to_planes,
    dagger,
    renormalize,
)

# Letter products feed each element's norm deviation into the other, so the
# distance from the group compounds near-geometrically with word length
# (about 1.6^k on alternating letters), and whatever accumulates between
# renormalizations is baked into the fiber residual for good.  A cadence of
# 8 keeps each cycle's contribution at the roundoff floor; the flow engine
# can afford a longer cadence because its factors are exactly unitary.
WORD_RENORM_CADENCE = 8

# Rows per block of apply_word_stack: a block's planes and the letter
# step's temporaries, a few MB at 4096 rows, stay in cache through all of
# its letters.  On 26 000 rows, blocks of 1024 to 4096 rows cost 0.19 to
# 0.22 us per row-letter and blocks of 8192 cost 0.23 us, against 0.39 us
# unblocked (one core of a shared 2-core x86_64 host; 2048 and 4096 trade
# places between runs).
WORD_BLOCK_ROWS = 4096

LETTERS = ("a", "A", "b", "B")

# _NEXT[i] lists, in index order, the three letters that may follow letter i:
# every letter but its inverse i ^ 1.
_NEXT = np.array([[j for j in range(4) if j != i ^ 1] for i in range(4)], dtype=np.int8)

_LETTER_MATRIX = {
    "a": np.array([[1, 1], [0, 1]], dtype=np.int64),
    "A": np.array([[1, -1], [0, 1]], dtype=np.int64),
    "b": np.array([[1, 0], [1, 1]], dtype=np.int64),
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

    def __str__(self) -> str:
        return "".join(self.letters)

    @classmethod
    def parse(cls, text: str) -> "TwistWord":
        return cls(tuple(text.strip()))


# A one-row apply_word_stack call ran `cli orbit` 3x slower and changed its CSV bytes.
def apply_word(word: TwistWord, p: RepPoint) -> RepPoint:
    """Apply the word's letters left to right, renormalizing on cadence."""
    a, b = p.a, p.b
    for i, letter in enumerate(word.letters):
        if letter == "a":
            b = np.dot(b, a)
        elif letter == "A":
            b = np.dot(b, dagger(a))
        elif letter == "b":
            a = np.dot(a, b)
        else:
            a = np.dot(a, dagger(b))
        if (i + 1) % WORD_RENORM_CADENCE == 0:
            a = renormalize(a)
            b = renormalize(b)
    return RepPoint(a=a, b=b, c=p.c)


def homology_action(word: TwistWord) -> np.ndarray:
    """Image of a word in the determinant-one 2x2 integer matrices.

    Left-to-right product of the letter matrices, matching apply_word's
    composition order, so the map is a monoid homomorphism.  Entries are
    exact Python ints (object dtype); int64 would wrap past about 92 letters.
    """
    m = np.eye(2, dtype=object)
    for letter in word.letters:
        m = m @ _LETTER_MATRIX[letter]
    return m


def is_hyperbolic(m: np.ndarray) -> bool:
    """Whether a determinant-one integer matrix has off-circle eigenvalues,
    equivalently |trace| > 2."""
    (p, q), (r, t) = np.asarray(m).tolist()
    # Exact: a float determinant loses entries past 2**26 or so.
    if p * t - q * r != 1:
        raise ValueError("homology matrices must have determinant 1")
    return abs(p + t) > 2


def random_word(length: int, rng: np.random.Generator) -> TwistWord:
    """Uniform random word with no letter followed by its own inverse.

    The letters of random_word_indices(1, length, rng), from the same draws
    with the same generator state afterwards, walked through _NEXT in
    Python: a numpy step per letter costs more than the draws on one word.
    """
    if length <= 0:
        return TwistWord(())
    nxt = _NEXT.tolist()
    indices = [int(rng.integers(4, size=1)[0])]
    for r in rng.integers(3, size=length - 1).tolist():
        indices.append(nxt[indices[-1]][r])
    return TwistWord(tuple(LETTERS[i] for i in indices))


def random_word_indices(count: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Letter-index arrays for `count` independent random words.

    Shape (count, length); the first letter is uniform over all four, each
    later letter uniform over the three in _NEXT that do not cancel the
    previous one.  One draw per letter position: rng.integers(4, size=count)
    for the first letters, then rng.integers(3, size=count) for each later
    position.  The words are drawn position-major and returned as the
    transposed view.
    """
    out = np.empty((max(length, 0), count), dtype=np.int8)
    if length > 0:
        out[0] = rng.integers(4, size=count)
    for j in range(1, length):
        out[j] = _NEXT[out[j - 1], rng.integers(3, size=count)]
    return out.T


def apply_word_stack(
    indices: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply per-row letter index sequences to stacked pairs.

    indices has shape (n, length), integer letter indices over the order
    "a", "A", "b", "B"; rows evolve independently.  Raises
    InvalidGroupElementError unless a and b are (n, 3, 3) stacks with no
    NaN or inf entry, and ValueError unless indices is a 2-D integer array
    with entries in 0..3.

    Returns new stacks: the (n, 3, 3) stack views (su3._stack_view) of two
    contiguous (3, 3, n) planes, which su3._planes_view hands back to the
    planar kernels without a copy.

    The rows run in blocks of WORD_BLOCK_ROWS, all letters per block (see
    _apply_word_planes), and each block is written into the output planes.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2 or not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(
            f"letter indices must be a 2-D integer array, got shape {indices.shape}"
            f" and dtype {indices.dtype}"
        )
    n = len(indices)
    x = _to_planes(a)
    y = _to_planes(b)
    if x.shape[2] != n or y.shape[2] != n:
        raise InvalidGroupElementError(
            f"indices have {n} rows, a has {x.shape[2]} and b has {y.shape[2]}"
        )
    if indices.size and not 0 <= indices.min() <= indices.max() < len(LETTERS):
        raise ValueError(f"letter indices must lie in 0..3; alphabet is {LETTERS}")
    # _to_planes copied a and b, so their planes take the blocks' results.
    for lo in range(0, n, WORD_BLOCK_ROWS):
        rows = slice(lo, lo + WORD_BLOCK_ROWS)
        x[:, :, rows], y[:, :, rows] = _apply_word_planes(
            indices[rows], x[:, :, rows], y[:, :, rows]
        )
    return _stack_view(x), _stack_view(y)


def _apply_word_planes(
    indices: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """apply_word_stack on the planes of a block of rows; returns new planes.

    Two slots, which start as the planes x of a and y of b: x holds each
    row's last target, the element its last letter multiplied (b for
    "a"/"A", a for "b"/"B"), and y the other one.  A letter swaps the slots on the rows whose target changes, then sets
    x = x y, or x y^H on the inverse letters: one planar product over the
    block.  Every WORD_RENORM_CADENCE letters both slots go through
    renormalize as the (rows, 3, 3) stack view of their planes.
    """
    x_is_b = np.zeros(len(indices), dtype=bool)
    for j, col in enumerate(np.ascontiguousarray(indices.T)):
        to_b = col < 2
        swap = to_b != x_is_b
        x_is_b = to_b
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        # y, or y^H on the inverse letters; freed before the renormalization
        # below, so that the engine peaks no higher than the matmul one did.
        # A bool condition: np.where took about 1.5x as long on int8 col & 1.
        inverse = (col & 1).astype(bool)
        factor = np.where(inverse, np.conjugate(y.transpose(1, 0, 2)), y)
        x = _planar_product(x, factor)
        del factor
        if (j + 1) % WORD_RENORM_CADENCE == 0:
            x = _planes_view(renormalize(_stack_view(x)))
            y = _planes_view(renormalize(_stack_view(y)))
    # The same swap as a letter that targets a everywhere: then x = a, y = b.
    return np.where(x_is_b, y, x), np.where(x_is_b, x, y)
