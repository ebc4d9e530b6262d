"""Every top-level function and class in ``src/rumincalc`` has a caller, and
no module of the package reaches into another for a private name.

A name counts as used when some statement of ``src/`` or ``benchmarks/``
other than its own definition names it: as a variable, an attribute, or a
string constant (``benchmarks/tracing.py`` wraps functions by name, as in
``(grid, "discrete_t_derivative")``). Oracles that only the tests use live
next to those tests, not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rumincalc"

# kept without a caller in src/ or benchmarks/, each for a reason of its own
KEPT = {
    "case_formula_spaces": "the independent Lefschetz-case route that build_spaces is checked against",
    "cartan_homotopy": "the cone homotopy K_y at one point y, which the averaged closed form is checked against",
    "tail_smoothing_probe": "probes the paper's claim that the kernel's tail part smooths",
}


def _references(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def _definitions_and_references():
    defined, used = {}, set()
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
                if path.parent == PACKAGE:
                    defined[stmt.name] = path.name
            used |= refs
    return defined, used


def test_every_src_definition_has_a_caller():
    defined, used = _definitions_and_references()
    unused = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in used and name not in KEPT
    )
    assert unused == []


def test_kept_names_exist_and_have_no_caller():
    # a kept name that gains a caller, or is deleted, leaves this list
    defined, used = _definitions_and_references()
    assert sorted(n for n in KEPT if n in defined and n not in used) == sorted(KEPT)


def test_no_private_name_is_imported_across_modules():
    # an underscore name is private to its module; another module that needs
    # it should get a public function instead
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            within_package = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "rumincalc"
            )
            if within_package:
                crossings += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
    assert crossings == []
