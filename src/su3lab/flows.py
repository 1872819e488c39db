"""Twist flows: one-parameter deformations moving a pair inside its fiber.

For a trace observable f(x) = Re Tr(x) or Im Tr(x), the variation F(x) is
the unique algebra element with <F(x), v> = (d/dt) f(x exp(t v)) at t = 0.
Concretely F is the traceless anti-Hermitian part of x (of -i x for the
imaginary part), so it commutes with x, and the one-parameter subgroup
zeta_t(x) = exp(t F(x)) centralizes x.  Multiplying the right holonomy
factor of a curve by zeta_t therefore moves (a, b) without changing the
commutator, and keeps the flowed curve's own trace constant.

The four flowable curves and the holonomy they centralize:

    alpha           x = a        (a, b)   -> (a, b z)
    beta            x = b        (a, b)   -> (a z, b)
    alpha_beta      x = a b      rewrites the pair through (u, v) = (ab, b),
                                 flows v -> v z, and changes basis back
    alpha_beta_inv  x = a b^-1   same through (u, v) = (ab^-1, b)

The boundary curve's trace is constant on every fiber, so requesting its
flow raises TrivialFlowError instead of silently doing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrivialFlowError
from .fiber import RepPoint
from .su3 import (
    IDENTITY,
    RENORM_CADENCE,
    dagger,
    exp_algebra,
    renormalize,
    trace,
)

CURVES = ("alpha", "beta", "alpha_beta", "alpha_beta_inv")
BOUNDARY = "boundary"
PARTS = ("re", "im")

# Flow times in random walks are drawn from [-TWIST_TIME_BOUND, +bound];
# zeta_t is quasi-periodic, so larger steps add no reach.
TWIST_TIME_BOUND = 2 * np.pi


@dataclass(frozen=True)
class Observable:
    """A choice of curve and of the real or imaginary trace part."""

    curve: str
    part: str = "re"

    def __post_init__(self):
        if self.curve not in CURVES + (BOUNDARY,):
            raise ValueError(f"unknown curve {self.curve!r}")
        if self.part not in PARTS:
            raise ValueError(f"unknown part {self.part!r}")


@dataclass(frozen=True)
class FlowStep:
    """An observable together with a flow time."""

    observable: Observable
    time: float

    def __post_init__(self):
        if not np.isfinite(self.time):
            raise ValueError("flow time must be finite")


def variation(x: np.ndarray, part: str = "re") -> np.ndarray:
    """The algebra-valued gradient of the chosen trace part at x.

    Traceless anti-Hermitian component of x (of -i x for part "im"); the
    unique algebra element representing the directional derivative of the
    trace observable against the invariant pairing.  Commutes with x when x
    is unitary.  Accepts stacks.
    """
    x = np.asarray(x, dtype=complex)
    if part == "im":
        x = -1j * x
    elif part != "re":
        raise ValueError(f"unknown part {part!r}")
    f = (x - dagger(x)) / 2
    return f - (trace(f) / 3)[..., None, None] * IDENTITY


def one_param(x: np.ndarray, t: float, part: str = "re") -> np.ndarray:
    """zeta_t(x) = exp(t F(x)); commutes with x.  Accepts stacks."""
    t = np.asarray(t, dtype=float)
    return exp_algebra(t[..., None, None] * variation(x, part))


def curve_holonomy(a: np.ndarray, b: np.ndarray, curve: str) -> np.ndarray:
    """The matrix whose trace is the named curve's observable."""
    if curve == "alpha":
        return a
    if curve == "beta":
        return b
    if curve == "alpha_beta":
        return a @ b
    if curve == "alpha_beta_inv":
        return a @ dagger(b)
    if curve == BOUNDARY:
        return a @ b @ dagger(b @ a)
    raise ValueError(f"unknown curve {curve!r}")


def twist_flow(p: RepPoint, step: FlowStep) -> RepPoint:
    """Flow the pair along the step's observable for the step's time.

    Returns a new point on the same fiber.  The flowed curve's own trace is
    conserved exactly by construction for alpha_beta and alpha_beta_inv and
    trivially for alpha and beta (their holonomy matrix is unchanged).
    """
    curve = step.observable.curve
    if curve == BOUNDARY:
        raise TrivialFlowError(
            "the boundary trace is constant on each fiber; its flow fixes"
            " every point"
        )
    # np.array copies: the step writes into a and b, and p is frozen.
    a = np.array(p.a[None], dtype=complex)
    b = np.array(p.b[None], dtype=complex)
    _flow_step(
        a,
        b,
        np.array([CURVES.index(curve)]),
        np.array([step.observable.part == "im"]),
        np.array([step.time]),
    )
    return RepPoint(a=a[0], b=b[0], c=p.c)


def _flow_step(
    a: np.ndarray,
    b: np.ndarray,
    curve: np.ndarray,
    part_im: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Flow each row of the stacks in place along its own observable.

    curve holds indices into CURVES, part_im selects the imaginary trace
    part, t the flow time; all three have one entry per row.  Returns the
    stack of centralizing factors z that were applied.
    """
    m_alpha = curve == 0
    m_beta = curve == 1
    m_ab = curve == 2
    m_abinv = curve == 3
    ab = a[m_ab] @ b[m_ab]
    x = np.empty_like(a)
    x[m_alpha] = a[m_alpha]
    x[m_beta] = b[m_beta]
    x[m_ab] = ab
    x[m_abinv] = a[m_abinv] @ dagger(b[m_abinv])
    z = one_param(np.where(part_im[:, None, None], -1j * x, x), t)

    # The table in the module docstring, with a = u v^-1 for alpha_beta and
    # a = u v for alpha_beta_inv.  Order matters: the alpha_beta update of a
    # reads the pre-step b.
    a[m_ab] = ab @ dagger(z[m_ab]) @ dagger(b[m_ab])
    b[m_ab] = b[m_ab] @ z[m_ab]
    b[m_alpha] = b[m_alpha] @ z[m_alpha]
    a[m_beta] = a[m_beta] @ z[m_beta]
    a[m_abinv] = a[m_abinv] @ z[m_abinv]
    b[m_abinv] = b[m_abinv] @ z[m_abinv]
    return z


def flow_walk_stack(
    a: np.ndarray,
    b: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    max_time: float = TWIST_TIME_BOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """Random twist-flow walk driving stacked pairs in lockstep.

    Each step, every row draws its own curve (uniform over the four
    flowable ones), trace part, and time uniform in [-max_time, max_time].
    Renormalizes both stacks every RENORM_CADENCE steps.  Returns the
    updated stacks; inputs are not modified.
    """
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    for step in range(int(steps)):
        curve = rng.integers(4, size=n)
        part_im = rng.integers(2, size=n).astype(bool)
        t = rng.uniform(-max_time, max_time, size=n)
        # Holding z until the next step stops glibc from trimming the heap
        # when the step's temporaries are freed: at 1000 rows that cost
        # about 200 page faults per step, some 10 % of the walk.
        z = _flow_step(a, b, curve, part_im, t)
        if (step + 1) % RENORM_CADENCE == 0:
            a = renormalize(a)
            b = renormalize(b)
    return a, b


def random_flow_walk(
    p: RepPoint,
    steps: int,
    rng: np.random.Generator,
    max_time: float = TWIST_TIME_BOUND,
) -> RepPoint:
    """Compose `steps` random twist flows starting at p.

    The walk stays on p's fiber; the returned point re-validates the
    residual bound on construction.
    """
    a, b = flow_walk_stack(p.a[None], p.b[None], steps, rng, max_time)
    return RepPoint(a=a[0], b=b[0], c=p.c)
