"""Source hygiene that needs no linter: checks on the package's syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polyimage"


def unused_module_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_module_imports_are_found():
    source = "import os\nimport sys as system\nfrom a import b, c\nprint(b, os.sep)\n"
    assert unused_module_imports(source) == ["system", "c"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_module_imports(path.read_text()) == []


def callers(source: str, name: str) -> set[str]:
    """Module-level functions and classes whose bodies call `name(` or `.name(`."""
    def called(func) -> str | None:
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and any(isinstance(call, ast.Call) and called(call.func) == name
                    for call in ast.walk(node))}


def package_callers(name: str) -> set[tuple[str, str]]:
    return {(path.name, caller) for path in SRC.glob("*.py")
            for caller in callers(path.read_text(), name)}


def test_rotation_callers_are_found():
    source = ("def a(m):\n    def b():\n        return m.rotated(1)\n    return b\n"
              "def c(m):\n    return m.rotated\n"
              "def d(g):\n    return rotated(g)\n")
    assert callers(source, "rotated") == {"a", "d"}


def test_one_joint_count_kernel():
    # rotations become joint counts in one place: primeimage.joint_count_table
    assert package_callers("rotated") == {("primeimage.py", "joint_count_table")}


def test_one_collision_shift_algorithm():
    # both obstruction sets root R(h) in one place: polyarith.collision_shifts
    assert package_callers("fp_roots") == {("polyarith.py", "collision_shifts")}
