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


def test_one_critical_value_route():
    # C over Z is interpolated prime by prime in critical_value_poly; C mod p
    # is built in critical_diffs_mod alone, where the tame/wild rule is read
    assert package_callers("_critical_resultant") == {("polyarith.py", "critical_value_poly"),
                                                      ("polyarith.py", "critical_diffs_mod")}


def test_one_report_renderer():
    # commands put raw values in `result`; floats and Fractions are written
    # out in one place, cli._jsonable
    assert package_callers("_frac") == {("cli.py", "_jsonable")}
    assert package_callers("_f12") == {("cli.py", "_jsonable")}


def definitions(name: str) -> list[tuple[str, str]]:
    """(module, enclosing class or "") for each def or class named `name`."""
    out = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else []
            out += [(path.name, node.name) for n in inner
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                out.append((path.name, ""))
    return out


def test_one_histogram_table():
    # stats.histogram_normalized returns the rows `spacings --out` writes
    assert definitions("Histogram") == []
    assert definitions("_histogram_rows") == []


def test_one_record_per_prime_image():
    # a prime's image is its ImageMask: no second record copies its count,
    # and correlation reads the masks composite_stats returns
    assert definitions("PrimeStats") == []
    assert definitions("prime_stats") == []
    assert ("stats.py", "correlation") not in package_callers("image_mask")


def package_readers(name: str) -> set[tuple[str, str]]:
    """(module, function or class) for each module-level definition whose
    body reads `name` or `.name`, called or passed on."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and any(
                    (isinstance(n, ast.Name) and n.id == name)
                    or (isinstance(n, ast.Attribute) and n.attr == name)
                    for n in ast.walk(node)):
                out.add((path.name, node.name))
    return out


def test_masks_flow_as_values():
    # composite_stats builds a command's masks through the image_mask cache;
    # every other consumer takes the masks its caller built
    assert package_readers("image_mask") == {("composite.py", "composite_stats")}


def test_polynomial_methods_written_once():
    # IntPoly and FpPoly share them through one base class
    for name in ("shifted", "derivative", "degree", "is_zero", "leading"):
        assert definitions(name) == [("polyarith.py", "_Poly")], name


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
