"""The README's library example runs against the package in src, which
loads no module that the Installation section does not list, and su3lab
re-exports the names that the example imports and no others."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import su3lab

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports su3lab from src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs():
    result = run_python(library_example())
    assert result.returncode == 0, result.stderr


def test_package_names_are_the_library_example_imports():
    """Plus exp_algebra, which bench/test_bench.py reads through su3lab."""
    imports = re.search(r"^from su3lab import \((.*?)\)", library_example(), re.M | re.S)
    example = {name.strip() for name in imports.group(1).split(",") if name.strip()}
    public = {
        name
        for name, value in vars(su3lab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == example | {"exp_algebra"}


def test_import_loads_neither_experiments_nor_cli():
    result = run_python(
        "import sys, su3lab\n"
        "print(sorted(m for m in sys.modules if m in ('su3lab.experiments', 'su3lab.cli')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_package_never_loads_scipy():
    """numpy is the only runtime dependency that the Installation section
    lists: a fresh `import su3lab, su3lab.cli` loads no scipy module."""
    result = run_python(
        "import sys, su3lab, su3lab.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
