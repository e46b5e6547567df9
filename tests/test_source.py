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


def test_one_resultant_route():
    # fp_resultant is the one resultant algorithm: its values are CRT-lifted
    # in two places and interpolated in two
    assert package_callers("_lift") == {("polyarith.py", "int_resultant"),
                                        ("polyarith.py", "critical_value_poly")}
    assert package_callers("_interp_fp") == {("polyarith.py", "difference_resultant"),
                                             ("polyarith.py", "_critical_resultant")}


def test_polynomials_normalized_by_their_constructors():
    # IntPoly and FpPoly trim (and reduce mod p) their coefficients; no
    # other code does it for them
    assert package_callers("_trim") == {("polyarith.py", "IntPoly"), ("polyarith.py", "FpPoly")}


def test_wild_regime_decided_without_exceptions():
    # critical_diffs_mod branches on f mod p and its derivative; nothing in
    # the package catches WildModulusError to find the wild regime
    handlers = [(path.name, node.lineno) for path in SRC.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "WildModulusError" in ast.unparse(node.type)]
    assert handlers == []


def unreferenced(sources: dict[str, str]) -> set[tuple[str, str]]:
    """Module-level functions and classes that no code outside their own
    definition reads by name or attribute; __init__.py re-exports do not count."""
    def names(nodes) -> set[str]:
        return {n.id if isinstance(n, ast.Name) else n.attr
                for node in nodes for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    trees = {name: ast.parse(source) for name, source in sources.items()
             if name != "__init__.py"}
    out = set()
    for name, tree in trees.items():
        defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        elsewhere = names(t for other, t in trees.items() if other != name)
        for node in defs:
            if node.name not in elsewhere | names(n for n in tree.body if n is not node):
                out.add((name, node.name))
    return out


def test_unreferenced_definitions_are_found():
    sources = {"a.py": "def f():\n    return f()\ndef g():\n    return h\nclass C:\n    pass\n",
               "b.py": "from .a import C\ndef h():\n    return C()\n",
               "__init__.py": "from .a import f\n"}
    assert unreferenced(sources) == {("a.py", "f"), ("a.py", "g")}


def test_every_definition_is_used():
    # the oracle's naive references exist for the tests alone
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert {(m, d) for m, d in unreferenced(sources) if m != "oracle.py"} == set()
