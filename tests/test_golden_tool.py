"""tools/golden_digests.py, the byte-identity check between commits, still
runs against the current API and prints every row its docstring lists."""

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_digests.py"

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


def test_golden_table_has_every_row(monkeypatch):
    # The tool puts its src directory on sys.path; undo that afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("golden_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows = tool.table([7])
    assert len(rows) == len(ROW_NAMES) == 28
    names = set()
    for row in rows:
        match = re.fullmatch(r"seed7/(\w+) [0-9a-f]{64}", row)
        assert match, row
        names.add(match.group(1))
    assert names == ROW_NAMES
