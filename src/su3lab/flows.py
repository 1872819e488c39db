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

One flow engine, _flow_steps, runs twist_flow (one row, one step) and
flow_walk_stack on plane-major (n, 3, 3) stacks (see su3lab.su3), and
both return new stacks, as the word engine does.  flow_walk_stack copies
its pairs once on entry through su3's one pair check, which refuses
anything but two (n, 3, 3) stacks of one shape on SU(3) within
UNITARITY_TOL.  twist_flow takes a RepPoint, whose construction made
that check, and hands the engine its matrices as 1-row stacks without a
second one; the engine writes neither input.  Each step sorts its rows
by curve and keeps them in that order: one row gather per stack, and each
curve's group forms only its own products, written into row slices of
work stacks allocated once per call: no step selects rows from
whole-stack products, and only exp_algebra's check and its x^3 terms
allocate a stack in a step.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, TrivialFlowError
from .fiber import RepPoint
from .su3 import (
    RENORM_CADENCE,
    _check_layout,
    _gather_rows,
    _pair_stacks,
    _planar_product,
    _plane_major,
    _work_stacks,
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
    Accepts stacks, and returns a new plane-major stack.
    """
    x = np.asarray(x, dtype=complex)
    _check_layout(x)
    p = _plane_major(x)
    return _variation(p, np.empty_like(p)).reshape(x.shape)


def _variation(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """variation on an (n, 3, 3) stack x, written into the stack f and
    returned.  f = (x - x^H) / 2 is exactly anti-Hermitian, because IEEE
    subtraction is: entry (k, i) is -(entry (i, k)) bit for bit."""
    np.conjugate(x.swapaxes(1, 2), out=f)
    np.subtract(x, f, out=f)
    f *= 0.5
    mean = (f[:, 0, 0] + f[:, 1, 1] + f[:, 2, 2]) / 3
    for i in range(3):
        f[:, i, i] -= mean
    return f


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
    draw = (np.array([CURVES.index(curve)]), np.array([part == "im"]), np.array([t], dtype=float))
    a, b = _flow_steps(
        np.asarray(p.a, dtype=complex)[None], np.asarray(p.b, dtype=complex)[None], [draw]
    )
    return RepPoint(a=a[0], b=b[0], c=p.c)


# A step runs its rows grouped by curve, in this order: then a z (beta and
# alpha_beta_inv rows), u (alpha_beta_inv and alpha_beta) and b z (all but
# beta) each run on one contiguous row slice.  _GROUP_RANK[k] is the place
# of CURVES[k] in it.
_GROUP_ORDER = (1, 3, 2, 0)
_GROUP_RANK = np.argsort(_GROUP_ORDER).astype(np.int8)


def _flow_steps(a: np.ndarray, b: np.ndarray, draws) -> tuple[np.ndarray, np.ndarray]:
    """Flow the (n, 3, 3) stacks a and b through each step of draws.

    A step is (curve, part_im, t) with one entry per row: indices into
    CURVES, whether to flow the imaginary trace part, and the flow time.
    Renormalizes both stacks every RENORM_CADENCE steps.  Returns new
    plane-major stacks; a and b are not written.

    The walk holds its rows in slots, each step's rows sorted by the
    group of their curve (_GROUP_ORDER), and `slot` names the row in each
    slot.  A step gathers the pair into that order once, and each group
    forms only its own products, written straight into row slices of work
    stacks allocated once per call: x^2 on every row, u on half of them,
    b z on three quarters, a z on half and u (b z)^H on a quarter.  Each
    row sees the arithmetic of the one-row step, so its bits do not depend
    on the order; the rows go back to theirs at the end.
    """
    n = len(a)
    new_a, new_b, pair_a, pair_b = _work_stacks(4, n)
    u, f, z = _work_stacks(3, n)
    slot = np.arange(n)
    for step, (curve, part_im, t) in enumerate(draws, 1):
        rank = _GROUP_RANK[curve[slot]]
        order = np.argsort(rank, kind="stable")
        slot = slot[order]
        _gather_rows(a, order, pair_a)
        _gather_rows(b, order, pair_b)
        beta, inv, prod = np.cumsum(np.bincount(rank, minlength=4))[:3]
        # Im Tr x = Re Tr(-i x).
        scale = np.where(part_im[slot], -1j, 1.0)[:, None, None]
        # new_a holds x until the exponential is formed.
        x = new_a
        # u = a b^H on alpha_beta_inv rows and a b on alpha_beta rows: one
        # planar product over both, its right factors gathered in f.
        np.conjugate(pair_b[beta:inv].swapaxes(1, 2), out=f[beta:inv])
        f[inv:prod] = pair_b[inv:prod]
        _planar_product(pair_a[beta:prod], f[beta:prod], u[beta:prod])
        np.multiply(pair_b[:beta], scale[:beta], out=x[:beta])
        np.multiply(u[beta:prod], scale[beta:prod], out=x[beta:prod])
        np.multiply(pair_a[prod:], scale[prod:], out=x[prod:])
        _variation(x, f)
        f *= t[slot][:, None, None]
        exp_algebra(f, out=z)

        # The table in the module docstring.  On alpha_beta rows a = u v^-1
        # with u = a b and v = b z, so a reads the pre-step b through b z.
        _planar_product(pair_a[:inv], z[:inv], new_a[:inv])
        _planar_product(pair_b[beta:], z[beta:], new_b[beta:])
        new_a[prod:] = pair_a[prod:]
        new_b[:beta] = pair_b[:beta]
        np.conjugate(new_b[inv:prod], out=z[inv:prod])
        _planar_product(u[inv:prod], z[inv:prod].swapaxes(1, 2), new_a[inv:prod])
        if step % RENORM_CADENCE == 0:
            # Into the gather stacks, which then swap with the pair's.
            renormalize(new_a, out=pair_a)
            renormalize(new_b, out=pair_b)
            new_a, new_b, pair_a, pair_b = pair_a, pair_b, new_a, new_b
        a, b = new_a, new_b
    # Freed before the two output stacks are allocated.
    del u, f, z
    back = np.empty(n, dtype=np.intp)
    back[slot] = np.arange(n)
    return tuple(_gather_rows(m, back, np.empty_like(pair_a)) for m in (a, b))


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

    def draws():
        for _ in range(int(steps)):
            curve = rng.integers(4, size=n)
            part_im = rng.integers(2, size=n).astype(bool)
            yield curve, part_im, rng.uniform(-TWIST_TIME_BOUND, TWIST_TIME_BOUND, size=n)

    return _flow_steps(a, b, draws())


def walk_from(
    p: RepPoint, count: int, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The fiber sampler: flow_walk_stack on count read-only broadcast copies
    of p.  Returns (count, 3, 3) stacks a and b; p is not modified."""
    a, b = (np.broadcast_to(m, (count, 3, 3)) for m in (p.a, p.b))
    return flow_walk_stack(a, b, steps, rng)
