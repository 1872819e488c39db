"""SHA-256 digests of su3lab's seeded outputs, for byte-identity checks.

    python3 tools/golden_digests.py --seeds 7,11,29

Prints a dispatch fingerprint line, then a sorted `name sha256` table,
one line per output, and then the SHA-256 of that table.  The fingerprint
names what the seeded bytes depend on besides the seed and the version:
the numpy version, the SIMD targets numpy dispatches to on this machine,
the BLAS library and version, and the OpenBLAS kernel it runs (`unknown`
when numpy's BLAS does not report one).  It is not part of the table, so
the table digest does not cover it.

Per seed the table covers eight CLI runs (CSV bytes of `sample` on Haar
pairs, `sample --angles 0.123,0.456`, `sample --trace
0.5,0.1 --walk-steps 200` and `orbit --angles 0.123,0.456`, CLI defaults
otherwise, and the edge runs `sample --count 0` with and without
`--angles`, `orbit --n 1 --word-length 0` and `orbit --n 3 --word-length
0`), the JSON report of each experiment kind and of `coset_twist_orbit`
at N = 1 without its manifest (run through `su3lab experiment`), and of
`submersion_census` and `mcg_orbit_distribution` on a Haar fiber (no
`c_spec`, so `base_point` runs on a non-diagonal label),
`flow_walk_stack` on 1000 Haar pairs for 256 steps, `twist_flow` on 400
Haar points along all eight curve/part pairs, `apply_word_stack` on the
same 1000 Haar pairs with one random 200-letter word each, and on 9000
other Haar pairs with one random 64-letter word each (more than two of
the engine's 4096-row blocks), the letter
indices of `mcg.random_word_indices` for one 200-letter word and then
for a stack of 10 000 of them, `su3.renormalize` called on 64 single
matrices one by one at drift 1e-14, as on the product paths, and on the
same 64 matrices as one C-contiguous stack (the planar path),
`su3.exp_algebra` on three stacks of 64 algebra elements, with
Gaussian `ALGEBRA_BASIS` coordinates scaled by 1e-3, 1 and 12 so that c1
is below `EXP_TAYLOR_C1`, in between, and above `EXP_SQUARING_C1` (the
Taylor, closed-form and squaring branches), and the rank layers of the
submersion census on 2000 Haar pairs (a, b): the integer ranks of
`d_kappa_matrix`, the centralizer intersections and the `is_generic`
flags of b.

The script imports su3lab from the `src` directory beside it and calls
only the public API with positional arguments, so a copy of it run in
another checkout digests that checkout's code; two checkouts print the
same table exactly when these outputs are byte-identical.  Where the
public API changed between two commits (twist_flow took one step object
before it took curve, part and time), digest each commit with its own
copy of the script: the outputs, not the calls, are what must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from su3lab import cli, flows, mcg, su3, traces  # noqa: E402
from su3lab.fiber import (  # noqa: E402
    RepPoint,
    centralizer_intersection,
    d_kappa_matrix,
    d_kappa_rank,
)

CLI_RUNS = {
    "sample_haar": ["sample"],
    "sample_angles": ["sample", "--angles", "0.123,0.456"],
    "sample_trace": ["sample", "--trace", "0.5,0.1", "--walk-steps", "200"],
    "orbit_angles": ["orbit", "--angles", "0.123,0.456"],
    "sample_haar_empty": ["sample", "--count", "0"],
    "sample_angles_empty": ["sample", "--count", "0", "--angles", "0.123,0.456"],
    "orbit_single": ["orbit", "--n", "1", "--word-length", "0", "--angles", "0.123,0.456"],
    "orbit_empty_words": ["orbit", "--n", "3", "--word-length", "0", "--angles", "0.123,0.456"],
}

# Digest name, then the config lines after `seed`, starting with the kind.
EXPERIMENTS = {
    "central_fiber_rigidity": ["kind = central_fiber_rigidity"],
    "coset_twist_orbit": [
        "kind = coset_twist_orbit",
        "N = 2000",
        "c_spec = angles=0.123,0.456",
    ],
    "coset_twist_orbit_single": [
        "kind = coset_twist_orbit",
        "N = 1",
        "c_spec = angles=0.123,0.456",
    ],
    "abelian_hyperbolic_test": [
        "kind = abelian_hyperbolic_test",
        "N = 2000",
        f"c_spec = angles={np.sqrt(2) - 1},{np.sqrt(3) - 1}",
    ],
    "submersion_census": [
        "kind = submersion_census",
        "N = 64",
        "trials = 2",
        "c_spec = angles=0.123,0.456",
    ],
    "mcg_orbit_distribution": [
        "kind = mcg_orbit_distribution",
        "N = 200",
        "word_length = 40",
        "c_spec = angles=0.123,0.456",
    ],
    "submersion_census_haar": ["kind = submersion_census", "N = 64"],
    "mcg_orbit_distribution_haar": [
        "kind = mcg_orbit_distribution",
        "N = 200",
        "word_length = 40",
    ],
}

FLOW_PAIRS, FLOW_STEPS = 1000, 256
TWIST_POINTS = 400
WORD_LENGTH, WORD_STACK = 200, 10_000
WORD_BLOCK_PAIRS, WORD_BLOCK_LENGTH = 9000, 64
RENORM_MATRICES = 64
RENORM_DRIFT = 1e-14
EXP_ELEMENTS = 64
EXP_SCALES = {"taylor": 1e-3, "closed": 1.0, "squaring": 12.0}
RANK_PAIRS = 2000


def dispatched_targets() -> list[str]:
    """The SIMD targets above its baseline that numpy dispatches to here."""
    return [f for f in __cpu_dispatch__ if __cpu_features__[f]]


def openblas_core() -> str | None:
    """The kernel that numpy's bundled scipy-openblas runs, or None when
    numpy bundles no such library."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def fingerprint() -> str:
    """The dispatch fingerprint line: numpy version, dispatched targets,
    BLAS name and version, and OpenBLAS kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"dispatch numpy {np.__version__}"
        f" targets {','.join(dispatched_targets()) or 'none'}"
        f" blas {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
        f" core {openblas_core() or 'unknown'}"
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_digests(seed: int, tmp: Path) -> dict[str, str]:
    out = {}
    for name, argv in CLI_RUNS.items():
        path = tmp / f"{name}.csv"
        code, _ = _run_cli([*argv, "--seed", str(seed), "--out", str(path)])
        if code != 0:
            raise SystemExit(f"{name} at seed {seed} exited {code}")
        out[name] = _sha(path.read_bytes())
    return out


def experiment_digests(seed: int, tmp: Path) -> dict[str, str]:
    out = {}
    for name, (kind, *lines) in EXPERIMENTS.items():
        path = tmp / f"{name}.cfg"
        path.write_text("\n".join([kind, f"seed = {seed}", *lines]) + "\n")
        _, text = _run_cli(["experiment", str(path)])
        report = json.loads(text)
        report.pop("manifest")
        out[f"experiment_{name}"] = _sha(json.dumps(report, sort_keys=True, indent=2).encode())
    return out


def engine_digests(seed: int) -> dict[str, str]:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = su3.haar_random(rng, FLOW_PAIRS)
    b = su3.haar_random(rng, FLOW_PAIRS)
    fa, fb = flows.flow_walk_stack(a, b, FLOW_STEPS, rng)

    h = hashlib.sha256()
    for _ in range(TWIST_POINTS):
        p = RepPoint.from_pair(su3.haar_random(rng), su3.haar_random(rng))
        for curve in flows.CURVES:
            for part in flows.PARTS:
                q = flows.twist_flow(p, curve, part, rng.uniform(-3.0, 3.0))
                h.update(q.a.tobytes())
                h.update(q.b.tobytes())
    # Drawn after the twist flows, so their rows keep their draws.
    indices = mcg.random_word_indices(FLOW_PAIRS, WORD_LENGTH, rng)
    wa, wb = mcg.apply_word_stack(indices, a, b)
    return {
        "flow_walk_stack": _sha(fa.tobytes() + fb.tobytes()),
        "twist_flow": h.hexdigest(),
        "apply_word_stack": _sha(wa.tobytes() + wb.tobytes()),
    }


def word_block_digests(seed: int) -> dict[str, str]:
    """apply_word_stack on a stack that spans several row blocks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = su3.haar_random(rng, WORD_BLOCK_PAIRS)
    b = su3.haar_random(rng, WORD_BLOCK_PAIRS)
    indices = mcg.random_word_indices(WORD_BLOCK_PAIRS, WORD_BLOCK_LENGTH, rng)
    wa, wb = mcg.apply_word_stack(indices, a, b)
    return {"apply_word_stack_blocks": _sha(wa.tobytes() + wb.tobytes())}


def word_digests(seed: int) -> dict[str, str]:
    rng = np.random.Generator(np.random.PCG64(seed))
    one = mcg.random_word_indices(1, WORD_LENGTH, rng)
    stack = mcg.random_word_indices(WORD_STACK, WORD_LENGTH, rng)
    return {
        "random_word_indices_1": _sha(one.tobytes()),
        "random_word_indices_stack": _sha(stack.tobytes()),
    }


def renormalize_digests(seed: int) -> dict[str, str]:
    """Haar matrices times Id + e, entries of e at most RENORM_DRIFT/3,
    each renormalized as a single matrix, and then all of them as one
    stack.  The rows keep their `_newton_schulz` names, so that tables of
    earlier commits stay comparable."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (RENORM_MATRICES, 3, 3)
    e = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    e *= RENORM_DRIFT / (3 * np.abs(e).max(axis=(1, 2), keepdims=True))
    u = su3.haar_random(rng, RENORM_MATRICES) @ (su3.IDENTITY + e)
    single = b"".join(su3.renormalize(m).tobytes() for m in u)
    return {
        "renormalize_single_newton_schulz": _sha(single),
        "renormalize_stack_newton_schulz": _sha(su3.renormalize(u).tobytes()),
    }


def exp_digests(seed: int) -> dict[str, str]:
    """One stack per branch of exp_algebra; the coordinates are summed
    against ALGEBRA_BASIS elementwise, so no BLAS call shapes the input."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = {}
    for name, scale in EXP_SCALES.items():
        coords = scale * rng.standard_normal((EXP_ELEMENTS, 8))
        x = (coords[:, :, None, None] * su3.ALGEBRA_BASIS).sum(axis=1)
        out[f"exp_algebra_stack_{name}"] = _sha(su3.exp_algebra(x).tobytes())
    return out


def rank_layer_digests(seed: int) -> dict[str, str]:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = su3.haar_random(rng, RANK_PAIRS)
    b = su3.haar_random(rng, RANK_PAIRS)
    ranks = d_kappa_rank(d_kappa_matrix(a, b))
    inters = centralizer_intersection(a, b)
    generic = traces.is_generic(b)
    return {"rank_layers": _sha(ranks.tobytes() + inters.tobytes() + generic.tobytes())}


def table(seeds: list[int]) -> list[str]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            digests = {
                **cli_digests(seed, Path(tmp)),
                **experiment_digests(seed, Path(tmp)),
                **engine_digests(seed),
                **word_block_digests(seed),
                **word_digests(seed),
                **renormalize_digests(seed),
                **exp_digests(seed),
                **rank_layer_digests(seed),
            }
            rows += [f"seed{seed}/{name} {d}" for name, d in digests.items()]
    return sorted(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,11,29", help="comma-separated seeds")
    args = parser.parse_args(argv)
    rows = table([int(s) for s in args.seeds.split(",")])
    text = "".join(row + "\n" for row in rows)
    print(fingerprint())
    sys.stdout.write(text)
    print(f"table {_sha(text.encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
