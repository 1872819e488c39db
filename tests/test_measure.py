"""Both actions preserve Haar measure on pairs.

Every twist letter and every twist flow right-multiplies one element of
the pair by a function of the other, so Haar measure on SU(3) x SU(3) is
invariant under both engines.  A Haar ensemble pushed through either one
must stay indistinguishable from a fresh Haar ensemble in every character
coordinate.
"""

import numpy as np
from scipy.special import kolmogi

from conftest import make_rng
from su3lab.experiments import ks_statistic
from su3lab.flows import flow_walk_stack
from su3lab.mcg import apply_word_stack, random_word_indices
from su3lab.su3 import haar_random
from su3lab.traces import character_reals, character_values

N = 20_000
WORD_LENGTH = 50
FLOW_STEPS = 32

# The re/im parts of tr_a, tr_b, tr_ab, tr_ab_inv and tr_comm; the other
# eight columns are the same data conjugated, which KS does not see.
DISTINCT_COLUMNS = 10
COMPARISONS = 2 * DISTINCT_COLUMNS

# Two-sample KS with N points a side, at family-wise rate 1e-3 over all
# comparisons by the Kolmogorov law: 0.0230.
KS_MAX = kolmogi(1e-3 / COMPARISONS) * np.sqrt(2 / N)


def columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return character_reals(character_values(a, b))[:, :DISTINCT_COLUMNS]


def test_engines_preserve_haar_measure():
    rng = make_rng(2026)
    a = haar_random(rng, size=N)
    b = haar_random(rng, size=N)
    fresh = columns(haar_random(rng, size=N), haar_random(rng, size=N))

    word = columns(*apply_word_stack(random_word_indices(N, WORD_LENGTH, rng), a, b))
    flow = columns(*flow_walk_stack(a, b, FLOW_STEPS, rng))

    ks = [
        ks_statistic(moved[:, j], fresh[:, j])
        for moved in (word, flow)
        for j in range(DISTINCT_COLUMNS)
    ]
    assert len(ks) == COMPARISONS
    assert max(ks) <= KS_MAX, f"max KS {max(ks):.4f} over {KS_MAX:.4f}"
