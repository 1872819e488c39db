"""The four benchmark workloads: seeded inputs, one timed call, its checks.

Each workload splits into `setup` (input generation and one small warm-up
call), `call` (the timed operation, through su3lab's public API only) and
`check` (untimed: counts the operations that failed and digests the output
so repeated calls on the same seed can be compared).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from su3lab import cli, experiments, fiber, flows, su3, traces

# Acceptance 8 shape: N per ensemble and word length, one trial.
ORBIT_N = 10_000
ORBIT_WORD_LENGTH = 200

# Acceptance 1 flows shape: 1000 Haar pairs.  256 steps include four
# renormalizations at the flow cadence of 64.
FLOW_PAIRS = 1000
FLOW_STEPS = 256

RANK_PAIRS = 20_000
RANK_CHUNK = 2000

CLI_ROWS = 200
CLI_WORD_LENGTH = 200


@dataclass
class Outcome:
    """What one call did: operations attempted and failed, and a digest."""

    attempted: int
    failed: int
    digest: str
    verdict: bool | None = None


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


def raw_commutator(a, b):
    """a b a^-1 b^-1 with conjugate-transpose inverses, not renormalized."""
    return a @ b @ _dagger(b @ a)


def flow_row_failures(a, b, c) -> np.ndarray:
    """Per-row failure mask: fiber residual above FIBER_TOL, unitarity
    defect above UNITARITY_TOL, or anything non-finite.

    Computed here with plain numpy rather than through su3lab, so a broken
    residual helper in the package cannot hide a broken engine.
    """
    def defect(u):
        gram = np.abs(u @ _dagger(u) - np.eye(3)).max(axis=(-2, -1))
        return np.maximum(gram, np.abs(np.linalg.det(u) - 1.0))

    # NaN rows are expected inputs here; they fail through `finite`.
    with np.errstate(invalid="ignore"):
        residual = np.abs(raw_commutator(a, b) - c).max(axis=(-2, -1))
        drift = np.maximum(defect(a), defect(b))
    finite = np.isfinite(a).all(axis=(-2, -1)) & np.isfinite(b).all(axis=(-2, -1))
    ok = finite & (residual <= fiber.FIBER_TOL) & (drift <= su3.UNITARITY_TOL)
    return ~ok


class OrbitDistribution:
    name = "orbit_distribution"
    unit = "pair-letter steps"
    attempted_per_call = 1
    work_per_call = 3 * ORBIT_N * ORBIT_WORD_LENGTH
    min_calls = 2

    def setup(self, seed: int):
        config = experiments.ExperimentConfig(
            kind="mcg_orbit_distribution", seed=seed, n=ORBIT_N,
            word_length=ORBIT_WORD_LENGTH, trials=1,
        )
        warm = experiments.ExperimentConfig(
            kind="mcg_orbit_distribution", seed=seed, n=16,
            word_length=ORBIT_WORD_LENGTH, trials=1,
        )
        experiments.run_experiment(warm)
        return config

    def call(self, config):
        return experiments.run_experiment(config)

    def check(self, config, report) -> Outcome:
        data = report.to_json_dict()
        data.pop("manifest")
        stats = report.stats
        ks = [stats["max_ks"], stats["max_null_ks"]]
        ks += list(stats["ks_per_coordinate"].values())
        ks += list(stats["null_ks_per_coordinate"].values())
        bad = not stats["all_on_fiber"] or not np.isfinite(ks).all()
        digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        return Outcome(1, int(bad), digest, verdict=bool(report.passed))


class FlowWalk:
    name = "flow_walk"
    unit = "pair-flow steps"
    attempted_per_call = FLOW_PAIRS
    work_per_call = FLOW_PAIRS * FLOW_STEPS
    min_calls = 3

    def setup(self, seed: int):
        inputs_seed, walk_seed, warm_seed = np.random.SeedSequence(seed).spawn(3)
        rng = _rng(inputs_seed)
        a = su3.haar_random(rng, size=FLOW_PAIRS)
        b = su3.haar_random(rng, size=FLOW_PAIRS)
        c = raw_commutator(a, b)
        flows.flow_walk_stack(a[:16], b[:16], su3.RENORM_CADENCE, _rng(warm_seed))
        return a, b, c, walk_seed

    def call(self, inputs):
        a, b, _, walk_seed = inputs
        return flows.flow_walk_stack(a, b, FLOW_STEPS, _rng(walk_seed))

    def check(self, inputs, out) -> Outcome:
        fa, fb = out
        failed = int(flow_row_failures(fa, fb, inputs[2]).sum())
        return Outcome(fa.shape[0], failed, _sha(fa, fb))


def rank_pass(a, b):
    """The per-point pass of the submersion census, in stack chunks."""
    ranks, inters, generic = [], [], []
    for lo in range(0, a.shape[0], RANK_CHUNK):
        x, y = a[lo:lo + RANK_CHUNK], b[lo:lo + RANK_CHUNK]
        ranks.append(fiber.d_kappa_rank(fiber.d_kappa_matrix(x, y)))
        inters.append(fiber.centralizer_intersection(x, y))
        generic.append(traces.is_generic(y))
    return np.concatenate(ranks), np.concatenate(inters), np.concatenate(generic)


class RankCensus:
    name = "rank_census"
    unit = "pairs analysed"
    attempted_per_call = RANK_PAIRS
    work_per_call = RANK_PAIRS
    min_calls = 3

    def setup(self, seed: int):
        rng = _rng(seed)
        a = su3.haar_random(rng, size=RANK_PAIRS)
        b = su3.haar_random(rng, size=RANK_PAIRS)
        rank_pass(a[:64], b[:64])
        return a, b

    def call(self, inputs):
        return rank_pass(*inputs)

    def check(self, inputs, out) -> Outcome:
        ranks, inters, generic = out
        failed = int(np.sum((ranks == 8) != (inters == 0)))
        return Outcome(ranks.size, failed, _sha(ranks, inters, generic))


def orbit_argv(seed: int, rows: int, out: str) -> list[str]:
    """CLI arguments for an orbit on a regular fiber chosen from the seed.

    The angle ranges keep the three eigenvalue angles of the label at
    least 0.1 turns apart, far from the central and degenerate fibers.
    """
    rng = _rng(seed)
    t1 = rng.uniform(0.02, 0.15)
    t2 = rng.uniform(0.25, 0.40)
    return [
        "orbit", "--n", str(rows), "--word-length", str(CLI_WORD_LENGTH),
        "--angles", f"{t1:.6f},{t2:.6f}", "--seed", str(seed), "--out", out,
    ]


class OrbitCli:
    name = "orbit_cli"
    unit = "pair-letter steps"
    attempted_per_call = CLI_ROWS
    work_per_call = (CLI_ROWS - 1) * CLI_WORD_LENGTH
    min_calls = 3

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir

    def _run(self, seed: int, rows: int):
        fd, path = tempfile.mkstemp(suffix=".csv", dir=self.tmp_dir)
        os.close(fd)
        try:
            # With --out, the CLI prints its manifest line to stdout.
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(orbit_argv(seed, rows, path))
            with open(path, "rb") as handle:
                return code, handle.read()
        finally:
            os.unlink(path)

    def setup(self, seed: int):
        self._run(seed, 2)
        return seed

    def call(self, seed):
        return self._run(seed, CLI_ROWS)

    def check(self, seed, out) -> Outcome:
        code, data = out
        digest = hashlib.sha256(data).hexdigest()
        if code != 0:
            return Outcome(CLI_ROWS, CLI_ROWS, digest)
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        col = header.index("fiber_residual")
        residuals = np.array([float(line.split(",")[col]) for line in lines[1:]])
        bad = ~(np.isfinite(residuals) & (residuals <= fiber.FIBER_TOL))
        # Rows the CLI never wrote count as failed too.
        failed = int(bad.sum()) + max(CLI_ROWS - residuals.size, 0)
        return Outcome(CLI_ROWS, min(failed, CLI_ROWS), digest)


def make(name: str, tmp_dir: str):
    if name == OrbitCli.name:
        return OrbitCli(tmp_dir)
    return {w.name: w for w in (OrbitDistribution, FlowWalk, RankCensus)}[name]()


NAMES = ("orbit_distribution", "flow_walk", "rank_census", "orbit_cli")
