"""The README's library example runs against the package in src, which
loads no module that the Installation section does not list."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    result = run_python(blocks[0])
    assert result.returncode == 0, result.stderr


def test_package_never_loads_scipy():
    """numpy is the only runtime dependency that the Installation section
    lists: a fresh `import su3lab, su3lab.cli` loads no scipy module."""
    result = run_python(
        "import sys, su3lab, su3lab.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
