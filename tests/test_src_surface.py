"""Every top-level function and class and every method of ``src/rumincalc``
has a caller, and no module of the package reaches into another for a
private name.

Callers are looked for in ``src/`` and ``benchmarks/``, never in the tests:
an oracle that only the tests use lives next to those tests. Names resolve
by scope, as Python's ``symtable`` resolves them. A name counts as a caller
of a top-level definition only where a block loads it from module scope, or
imports it, outside that definition's own body; a local variable or a
parameter of the same name (``inner`` in ``linalg.matmul``) is not a caller.
An attribute ``x.attr`` outside its own body counts for every definition
named ``attr``, and ``ClassName.attr`` only for the method of that class.
In ``benchmarks/`` a string constant counts too, since
``benchmarks/tracing.py`` wraps functions by name, as in
``(grid, "discrete_t_derivative")``. Dunder methods are out of scope.
"""

import ast
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rumincalc"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module) -> list:
    """(name,) for each top-level def and class, (class, name) for each method."""
    keys = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            keys.append((stmt.name,))
        if isinstance(stmt, ast.ClassDef):
            keys += [(stmt.name, f.name) for f in stmt.body
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not _is_dunder(f.name)]
    return keys


def _global_loads(table, owner=None, enclosing=()) -> set:
    """(name, owner) for each name a block loads from module scope or from an
    import; ``owner`` is the top-level definition the block lies in. A name
    a closure or a comprehension takes from its enclosing function counts
    when that function imports it."""
    loads = set()
    for sym in table.get_symbols():
        name = sym.get_name()
        if not sym.is_referenced():
            continue
        if sym.is_free():
            binding = next(
                (t.lookup(name) for t in reversed(enclosing)
                 if t.get_type() == "function" and t.lookup(name).is_local()),
                None,
            )
            resolves = binding is not None and binding.is_imported()
        else:
            resolves = sym.is_global() or sym.is_imported()
        if resolves:
            loads.add((name, owner))
    for child in table.get_children():
        loads |= _global_loads(child, owner or child.get_name(), enclosing + (table,))
    return loads


def _attribute_loads(tree: ast.Module, classes: set) -> set:
    """(class or None, attr, enclosing definitions) for each loaded ``x.attr``;
    the class is set where ``x`` names a class of the package."""
    loads = set()

    def visit(node, stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + (node.name,)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            loads.add((owner if owner in classes else None, node.attr, stack))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, ())
    return loads


def unused_definitions(package: dict, others: dict) -> list:
    """``module:name`` of each definition in the ``package`` sources (file
    name -> source text) that no source of ``package`` or ``others`` calls.
    String constants count as callers only in ``others``."""
    trees = {name: ast.parse(src, filename=name) for name, src in {**package, **others}.items()}
    defined = {(module, key) for module in package for key in _definitions(trees[module])}
    classes = {key[0] for _, key in defined if len(key) == 2}
    names, attributes, strings = set(), set(), set()
    for module, src in {**package, **others}.items():
        names |= _global_loads(symtable.symtable(src, module, "exec"))
        attributes |= _attribute_loads(trees[module], classes)
        if module in others:
            for node in ast.walk(trees[module]):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.update(node.value.split("."))

    def called(key) -> bool:
        *cls, attr = key
        if attr in strings:
            return True
        if len(key) == 1 and any(n == attr and owner != attr for n, owner in names):
            return True
        return any(
            a == attr and (c is None or [c] == cls) and stack[:len(key)] != key
            for c, a, stack in attributes
        )

    return sorted(f"{module}:{'.'.join(key)}" for module, key in defined if not called(key))


def _sources(directory: Path) -> dict:
    return {path.name: path.read_text() for path in sorted(directory.glob("*.py"))}


def test_every_src_definition_has_a_caller():
    assert unused_definitions(_sources(PACKAGE), _sources(ROOT / "benchmarks")) == []


def test_the_caller_check_resolves_names_by_scope():
    package = {"m.py": (
        "def inner(a, b):\n"
        "    return a\n"
        "def matmul(a, inner):\n"
        "    rows = [inner for _ in a]\n"
        "    def nested():\n"
        "        return inner\n"
        "    return rows, nested\n"
        "class Grid:\n"
        "    def from_function(self):\n"
        "        return self.from_function()\n"
        "    def tested(self):\n"
        "        return 1\n"
        "class Form:\n"
        "    def from_function(self):\n"
        "        return 1\n"
        "def run(g):\n"
        "    from m import matmul\n"
        "    return [matmul(g, 1) for _ in g], Form.from_function(g), Grid(), Form()\n"
    )}
    # the tests call Grid.tested, but they are not scanned for callers
    others = {"bench.py": "import m\nm.run(None)\n"}
    assert unused_definitions(package, others) == [
        "m.py:Grid.from_function", "m.py:Grid.tested", "m.py:inner",
    ]
    # a string constant outside the package keeps a name alive, one inside it does not
    others["bench.py"] += 'SPANS = {"m.Grid.tested": None}\n'
    package["m.py"] += 'NAMES = ["inner"]\n'
    assert "m.py:Grid.tested" not in unused_definitions(package, others)
    assert "m.py:inner" in unused_definitions(package, others)


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
