"""tools/golden_digests.py, the byte-identity check between commits, still
runs against the current API and prints every row its docstring lists,
its dispatch fingerprint line stays outside the table digest, the last
row of the README's golden ledger names this version and, under its
fingerprint, this seed-7 table, and the rows that no numpy or BLAS
dispatch can move come out the same with numpy's dispatch above its
baseline masked and OpenBLAS on a lower kernel.

Run as a script, `python tests/test_golden_tool.py SEED` prints those rows
as JSON; the dispatch test runs it so in a child process.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "golden_digests.py"

# A full SHA-256 digest, not part of a longer hex string.
FULL_DIGEST = re.compile(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])")

# An x86-64 OpenBLAS kernel without AVX, below every machine that runs
# numpy 2's SSE4.2 baseline; OPENBLAS_CORETYPE selects it in a build with
# DYNAMIC_ARCH, as numpy's bundled OpenBLAS is.
LOW_BLAS_CORE = "Nehalem"

ROW_NAMES = {
    # Eight CLI runs.
    "sample_haar",
    "sample_angles",
    "sample_trace",
    "orbit_angles",
    "sample_haar_empty",
    "sample_angles_empty",
    "orbit_single",
    "orbit_empty_words",
    # Eight experiment reports.
    "experiment_central_fiber_rigidity",
    "experiment_coset_twist_orbit",
    "experiment_coset_twist_orbit_single",
    "experiment_abelian_hyperbolic_test",
    "experiment_submersion_census",
    "experiment_mcg_orbit_distribution",
    "experiment_submersion_census_haar",
    "experiment_mcg_orbit_distribution_haar",
    # The engines and kernels.
    "flow_walk_stack",
    "twist_flow",
    "apply_word_stack",
    "apply_word_stack_blocks",
    "random_word_indices_1",
    "random_word_indices_stack",
    "renormalize_single_newton_schulz",
    "renormalize_stack_newton_schulz",
    "exp_algebra_stack_taylor",
    "exp_algebra_stack_closed",
    "exp_algebra_stack_squaring",
    "rank_layers",
}

# The rows that hold under any numpy or BLAS dispatch: integer letter
# draws, the rank layers (constant on Haar pairs), the exact-integer
# abelian orbit, and the empty samples.  Every other row carries the
# roundoff of numpy's SIMD loops or of the BLAS kernel.
DISPATCH_INDEPENDENT_CLI = ("sample_haar_empty", "sample_angles_empty")
DISPATCH_INDEPENDENT_EXPERIMENTS = ("abelian_hyperbolic_test",)


def load_tool():
    """A fresh copy of the tool module; it puts its src directory on sys.path."""
    spec = importlib.util.spec_from_file_location("golden_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def dispatch_independent_rows(tool, seed: int) -> dict[str, str]:
    """The six dispatch-independent rows, from the tool's own functions run
    on only those CLI runs and experiments."""
    tool.CLI_RUNS = {name: tool.CLI_RUNS[name] for name in DISPATCH_INDEPENDENT_CLI}
    tool.EXPERIMENTS = {
        name: tool.EXPERIMENTS[name] for name in DISPATCH_INDEPENDENT_EXPERIMENTS
    }
    with tempfile.TemporaryDirectory() as tmp:
        return {
            **tool.cli_digests(seed, Path(tmp)),
            **tool.experiment_digests(seed, Path(tmp)),
            **tool.word_digests(seed),
            **tool.rank_layer_digests(seed),
        }


@pytest.fixture(scope="module")
def seed7_table():
    """The tool and its seed-7 table, made once for the tests that read it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        tool = load_tool()
        return tool, tool.table([7])


def golden_ledger(text: str) -> tuple[range, list[list[str]]]:
    """The span of the table under the README's Versions heading, and its
    rows below the header and rule, as cells without their backticks."""
    section = re.search(r"^## Versions\n.*?(?=^## |\Z)", text, re.M | re.S)
    table = re.search(r"(?:^\|.*\n?)+", section.group(), re.M)
    start = section.start() + table.start()
    rows = [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in table.group().splitlines()[2:]
    ]
    return range(start, start + len(table.group())), rows


def test_golden_table_has_every_row(seed7_table):
    _, rows = seed7_table
    assert len(rows) == len(ROW_NAMES) == 28
    names = set()
    for row in rows:
        match = re.fullmatch(r"seed7/(\w+) [0-9a-f]{64}", row)
        assert match, row
        names.add(match.group(1))
    assert names == ROW_NAMES


def test_golden_ledger_names_this_version_and_table(seed7_table):
    """The README's golden ledger ends with this version, and under its
    fingerprint with this seed-7 table, so a change that moves a byte
    fails here until it adds a row; every full digest in the README
    stands once, inside the ledger."""
    tool, rows = seed7_table
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    span, ledger = golden_ledger(text)
    version, _, table_digest, seed7_digest, fingerprint, _ = ledger[-1]
    # The version the manifests carry, of the su3lab the tool digested.
    assert version == tool.cli.__version__
    assert FULL_DIGEST.fullmatch(table_digest)
    assert FULL_DIGEST.fullmatch(seed7_digest)
    quoted = [(m.group(), m.start()) for m in FULL_DIGEST.finditer(text)]
    assert len({digest for digest, _ in quoted}) == len(quoted)
    assert all(at in span for _, at in quoted)
    here = tool.fingerprint()
    if here != fingerprint:
        pytest.skip(
            f"seed-7 digest not compared: the ledger's row was made under"
            f" {fingerprint!r}, this machine prints {here!r}"
        )
    assert tool._sha("".join(row + "\n" for row in rows).encode()) == seed7_digest


def test_fingerprint_line_is_printed_outside_the_table_digest(monkeypatch):
    """main prints the dispatch fingerprint first, then the rows, then the
    SHA-256 of the rows alone: two machines with the same rows print the
    same digest whatever their fingerprints."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    rows = ["seed7/a " + "0" * 64, "seed7/b " + "1" * 64]
    monkeypatch.setattr(tool, "table", lambda seeds: rows)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main(["--seeds", "7"]) == 0
    first, *body, last = out.getvalue().splitlines()
    targets = ",".join(tool.dispatched_targets()) or "none"
    assert first == tool.fingerprint()
    assert first.startswith(f"dispatch numpy {tool.np.__version__} targets {targets} blas ")
    assert first.endswith(f" core {tool.openblas_core() or 'unknown'}")
    assert body == rows
    text = "".join(row + "\n" for row in rows)
    assert last == f"table {hashlib.sha256(text.encode()).hexdigest()}"


def test_dispatch_independent_rows_hold_under_masked_dispatch(monkeypatch):
    """The six rows at seed 7, computed in a child whose numpy runs with
    every dispatched CPU feature of this machine masked, and whose bundled
    OpenBLAS, when it reports its kernel, runs LOW_BLAS_CORE, equal the
    native ones; on a machine with none above numpy's baseline and that
    kernel both runs are native.  No other row is compared: on another
    dispatch they are another sample of the same law."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    native = dispatch_independent_rows(tool, 7)
    assert len(native) == 6
    masked = tool.dispatched_targets()
    low_core = LOW_BLAS_CORE if tool.openblas_core() is not None else None
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(masked)}
    if low_core is not None:
        env["OPENBLAS_CORETYPE"] = low_core
    result = subprocess.run(
        [sys.executable, __file__, "7"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    child = json.loads(result.stdout)
    assert child["dispatched"] == []
    assert child["blas_core"] == low_core
    assert child["rows"] == native


if __name__ == "__main__":
    child_tool = load_tool()
    print(
        json.dumps(
            {
                "dispatched": child_tool.dispatched_targets(),
                "blas_core": child_tool.openblas_core(),
                "rows": dispatch_independent_rows(child_tool, int(sys.argv[1])),
            }
        )
    )
