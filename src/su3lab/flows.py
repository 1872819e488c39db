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

One flow step runs under both twist_flow (a stack of one) and
flow_walk_stack, on plane-major (n, 3, 3) stacks (see su3lab.su3), and
both return new stacks, as the word engine does.  flow_walk_stack copies
its pairs once on entry through su3's one pair check, which refuses
anything but two (n, 3, 3) stacks of one shape on SU(3) within
UNITARITY_TOL.  twist_flow takes a RepPoint, whose construction made
that check, and hands the step its matrices as 1-row stacks without a
second one; the step writes neither input.  In a step,
a b on the alpha_beta rows and a b^H on the alpha_beta_inv rows are one
planar product over the whole stack, formed only when some row's curve
needs it; each row's x, and then each row's new a and b, are picked with
np.where from whole-stack products.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, TrivialFlowError
from .fiber import RepPoint
from .su3 import (
    RENORM_CADENCE,
    _check_layout,
    _pair_stacks,
    _planar_product,
    _plane_major,
    dagger,
    exp_algebra,
    renormalize,
)

CURVES = ("alpha", "beta", "alpha_beta", "alpha_beta_inv")
BOUNDARY = "boundary"
PARTS = ("re", "im")

# Flow times in random walks are drawn from [-TWIST_TIME_BOUND, +bound];
# zeta_t is quasi-periodic, so larger steps add no reach.
TWIST_TIME_BOUND = 2 * np.pi


def variation(x: np.ndarray) -> np.ndarray:
    """The algebra-valued gradient of Re Tr at x.

    Traceless anti-Hermitian component of x; the unique algebra element
    representing the directional derivative of the trace observable against
    the invariant pairing.  The gradient of Im Tr at x is variation(-1j * x).
    Commutes with x when x is unitary, so exp(t variation(x)) does too.
    Accepts stacks, and returns a new plane-major stack; the flow step's
    plane-major x is read in place.
    """
    x = np.asarray(x, dtype=complex)
    _check_layout(x)
    p = _plane_major(x)
    f = np.empty_like(p)
    np.conjugate(p.swapaxes(1, 2), out=f)
    np.subtract(p, f, out=f)
    f *= 0.5
    mean = (f[:, 0, 0] + f[:, 1, 1] + f[:, 2, 2]) / 3
    for i in range(3):
        f[:, i, i] -= mean
    return f.reshape(x.shape)


def twist_flow(p: RepPoint, curve: str, part: str, t: float) -> RepPoint:
    """Flow the pair for time t along the real or imaginary part ("re" or
    "im") of the named curve's trace.

    Returns a new point on the same fiber.  The flowed curve's own trace is
    conserved exactly by construction for alpha_beta and alpha_beta_inv and
    trivially for alpha and beta (their holonomy matrix is unchanged).
    """
    if curve not in CURVES + (BOUNDARY,):
        raise InvalidArgumentError(f"unknown curve {curve!r}")
    if part not in PARTS:
        raise InvalidArgumentError(f"unknown part {part!r}")
    if not np.isfinite(t):
        raise InvalidArgumentError("flow time must be finite")
    if curve == BOUNDARY:
        raise TrivialFlowError(
            "the boundary trace is constant on each fiber; its flow fixes"
            " every point"
        )
    a, b = _flow_step(
        np.ascontiguousarray(p.a, dtype=complex)[None],
        np.ascontiguousarray(p.b, dtype=complex)[None],
        np.array([CURVES.index(curve)]),
        np.array([part == "im"]),
        np.array([t], dtype=float),
    )
    return RepPoint(a=a[0], b=b[0], c=p.c)


def _flow_step(
    a: np.ndarray,
    b: np.ndarray,
    curve: np.ndarray,
    part_im: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Flow each row of the plane-major stacks a and b along its observable.

    curve holds indices into CURVES, part_im selects the imaginary trace
    part, t the flow time; all three have one entry per row.  Returns new
    stacks (a, b); a and b are not written.
    """
    curve, part_im, t = (v[:, None, None] for v in (curve, part_im, t))
    x = np.where(curve == 0, a, b)
    on_product = curve >= 2
    if on_product.any():
        # u = a b on alpha_beta rows and a b^H on alpha_beta_inv rows: one
        # planar product for both.
        u = _planar_product(a, np.where(curve == 3, dagger(b), b))
        x = np.where(on_product, u, x)
    # Im Tr x = Re Tr(-i x); x is this step's own array.
    x *= np.where(part_im, -1j, 1.0)
    f = variation(x)
    f *= t
    z = exp_algebra(f)

    # The table in the module docstring.  On alpha_beta rows a = u v^-1
    # with u = a b and v = b z, so a reads the pre-step b through bz.
    bz = _planar_product(b, z)
    az = _planar_product(a, z)
    new_a = np.where((curve == 1) | (curve == 3), az, a)
    m_ab = curve == 2
    if m_ab.any():
        a_ab = _planar_product(u, dagger(bz))
        new_a = np.where(m_ab, a_ab, new_a)
    return new_a, np.where(curve != 1, bz, b)


def flow_walk_stack(
    a: np.ndarray,
    b: np.ndarray,
    steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Random twist-flow walk driving stacked pairs in lockstep.

    Each step, every row draws its own curve (uniform over the four
    flowable ones), trace part, and time uniform in +-TWIST_TIME_BOUND.
    Renormalizes both stacks every RENORM_CADENCE steps.  Copies its pairs
    once on entry and returns new plane-major stacks, as apply_word_stack
    does.  Inputs are not modified.  Raises InvalidGroupElementError unless
    a and b are (n, 3, 3) stacks of one shape on SU(3) within
    UNITARITY_TOL, NaN and inf entries refused, at any number of steps.
    """
    a, b = _pair_stacks(a, b)
    n = len(a)
    for step in range(int(steps)):
        curve = rng.integers(4, size=n)
        part_im = rng.integers(2, size=n).astype(bool)
        t = rng.uniform(-TWIST_TIME_BOUND, TWIST_TIME_BOUND, size=n)
        a, b = _flow_step(a, b, curve, part_im, t)
        if (step + 1) % RENORM_CADENCE == 0:
            a = renormalize(a)
            b = renormalize(b)
    return a, b


def walk_from(
    p: RepPoint, count: int, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The fiber sampler: flow_walk_stack on count read-only broadcast copies
    of p.  Returns (count, 3, 3) stacks a and b; p is not modified."""
    a, b = (np.broadcast_to(m, (count, 3, 3)) for m in (p.a, p.b))
    return flow_walk_stack(a, b, steps, rng)
