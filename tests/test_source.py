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


def rotation_callers(source: str) -> set[str]:
    """Module-level functions and classes whose bodies call `.rotated(`."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "rotated" for call in ast.walk(node))}


def test_rotation_callers_are_found():
    source = ("def a(m):\n    def b():\n        return m.rotated(1)\n    return b\n"
              "def c(m):\n    return m.rotated\n")
    assert rotation_callers(source) == {"a"}


def test_one_joint_count_kernel():
    # rotations become joint counts in one place: primeimage.joint_count_table
    callers = {(path.name, name) for path in SRC.glob("*.py")
               for name in rotation_callers(path.read_text())}
    assert callers == {("primeimage.py", "joint_count_table")}
