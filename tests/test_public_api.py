"""The package's public surface, read from the source with ast only.

A public name stays only if something other than the tests reaches it:
the `rde` CLI (src/roughpaths/cli.py), a demo, the benchmark (bench/)
or an acceptance criterion (tests/test_acceptance.py).  Reaching is by
name: any identifier those files use (a name, an attribute, an imported
name, or a string that is a bare identifier, as the benchmark's tracer
names what it wraps) reaches every definition of that name in the
library, and whatever the body of a reached definition uses is reached
in turn.  Module-level functions, classes and assignments are
definitions, and so is each method; a class's other statements and its
dunder methods go with the class.  Nothing is imported or run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "roughpaths"
CALLERS = [PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py"))]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    """(name, tree) of every library module but the package's __init__."""
    return [(path.stem, _parse(path)) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _identifiers(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            out.add(n.value)
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """{name: [nodes]} over the library: module-level functions, classes
    (without their non-dunder methods) and assignments, and methods."""
    defs = {}
    for _, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                own = []
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not _is_dunder(item.name)):
                        defs.setdefault(item.name, []).append(item)
                    else:
                        own.append(item)
                defs.setdefault(node.name, []).append(ast.ClassDef(
                    node.name, node.bases, node.keywords, own,
                    node.decorator_list))
            elif isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and n.id != "__all__":
                            defs.setdefault(n.id, []).append(node)
    return defs


def _reached():
    defs = _definitions()
    reached = set()
    todo = []
    for path in CALLERS:
        todo.extend(_identifiers(_parse(path)))
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            todo.extend(_identifiers(node) - reached)
    return reached


def test_top_level_names_are_the_modules_exports():
    init = _parse(PACKAGE / "__init__.py")
    imported, modules = set(), set()
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.add(node.module)
            imported.update(alias.asname or alias.name for alias in node.names)
    trees = dict(_modules())
    exported = set()
    for name in modules:
        exported.update(_exports(trees[name]))
    assert imported == exported
    for name, tree in trees.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert set(_exports(tree)) <= defined, name


def test_every_export_has_a_caller_outside_the_tests():
    reached = _reached()
    unreached = [f"{module}.{name}" for module, tree in _modules()
                 for name in _exports(tree) if name not in reached]
    assert not unreached, "reached only by the tests: " + ", ".join(unreached)


def test_every_definition_has_a_caller_outside_the_tests():
    # helpers and methods too: a definition only the tests reach is
    # library code that nothing uses
    unreached = sorted(set(_definitions()) - _reached())
    assert not unreached, "reached only by the tests: " + ", ".join(unreached)
