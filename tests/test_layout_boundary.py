"""The stack layout stays behind su3, and the group checks run on su3's
own kernels.

Every stack that crosses a module boundary is an (n, 3, 3) plane-major
stack, and only su3 forms the (3, 3, n) planes view of one.  This test
reads the package and fails on any three-axis .transpose(...) call outside
su3, and on any mention of the retired layout helpers anywhere.

The Gram defect, the determinant and the raw commutator each have one
kernel per representation: planes for a stack, Python complex entries for
a lone matrix.  So the package reading also fails on np.linalg.det outside
haar_random, on `@` in su3 outside adjoint_matrix, and on `@` in the
commutator and fiber-residual functions of fiber.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "su3lab"

RETIRED = re.compile(r"\b(_planes_view|_stack_view|_broadcast_planes|_plane_major_copy)\b")


def allowed(module: str, function: str, kind: str) -> bool:
    """Whether a `@` or a linalg det may stand in this top-level function."""
    if kind == "np.linalg.det":
        return (module, function) == ("su3.py", "haar_random")
    if module == "su3.py":
        return function == "adjoint_matrix"
    if module == "fiber.py":
        return function not in ("commutator", "fiber_residual", "_raw_commutator")
    return True


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


def matmuls_and_dets(tree: ast.Module) -> list[tuple[str, int, str]]:
    """(top-level function or class, line, kind) of every `@`, `@=` and
    linalg det in a module, the last as an attribute or an import."""
    hits = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            op = getattr(node, "op", None)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(op, ast.MatMult):
                hits.append((name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr == "det":
                if ast.unparse(node.value).endswith("linalg"):
                    hits.append((name, node.lineno, "np.linalg.det"))
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                if any(alias.name == "det" for alias in node.names):
                    hits.append((name, node.lineno, "np.linalg.det"))
    return hits


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


def test_group_checks_run_on_the_engines_kernels():
    found, hits = set(), []
    for path in sorted(SRC.glob("*.py")):
        for name, line, kind in matmuls_and_dets(ast.parse(path.read_text())):
            found.add((path.name, name, kind))
            if not allowed(path.name, name, kind):
                hits.append(f"{path.name}:{line}: {kind} in {name}")
    assert hits == []
    # The reader sees the uses that stay, so an empty list above is a finding.
    assert {
        ("su3.py", "haar_random", "np.linalg.det"),
        ("su3.py", "adjoint_matrix", "@"),
        ("fiber.py", "base_point", "@"),
    } <= found
