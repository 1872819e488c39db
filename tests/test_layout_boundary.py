"""The stack layout stays behind su3.

Every stack that crosses a module boundary is an (n, 3, 3) plane-major
stack, and only su3 forms the (3, 3, n) planes view of one.  This test
reads the package and fails on any three-axis .transpose(...) call outside
su3, and on any mention of the retired layout helpers anywhere.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "su3lab"

RETIRED = re.compile(r"\b(_planes_view|_stack_view|_broadcast_planes|_plane_major_copy)\b")


def three_axis_transposes(tree: ast.AST) -> list[int]:
    """Line numbers of x.transpose(i, j, k) and x.transpose((i, j, k)) calls."""
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "transpose"
        ):
            continue
        args = node.args
        if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
            args = args[0].elts
        if len(args) >= 3:
            lines.append(node.lineno)
    return lines


def test_only_su3_forms_planes():
    modules = sorted(SRC.glob("*.py"))
    assert "su3.py" in [p.name for p in modules]
    hits = []
    for path in modules:
        text = path.read_text()
        if path.name != "su3.py":
            lines = three_axis_transposes(ast.parse(text))
            hits += [f"{path.name}:{n}: transpose" for n in lines]
        hits += [
            f"{path.name}:{n}: {m.group(0)}"
            for n, line in enumerate(text.splitlines(), 1)
            for m in RETIRED.finditer(line)
        ]
    assert hits == []
