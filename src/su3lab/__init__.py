"""Numerical laboratory for commutator fibers of special unitary pairs.

The package studies pairs (a, b) of 3x3 special unitary matrices through
the commutator map kappa(a, b) = a b a^-1 b^-1: its fibers, the twist
flows and twist-word actions that preserve them, the trace coordinates
that separate orbits, and seeded statistical experiments probing how those
actions distribute points over a fiber.
"""

from .fiber import RepPoint, base_point, commutator
from .flows import twist_flow
from .mcg import TwistWord, apply_word
# Not in the library example: bench/test_bench.py checks that it is this name.
from .su3 import exp_algebra, haar_random
from .traces import character_values

__version__ = "0.8.0"
