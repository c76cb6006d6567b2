"""No dead helpers, no dead constants and no unused imports in the package.

The package has no linter, so this walks its source with `ast`.  A
top-level function or class is live when some other code in the package
names it (as a name or an attribute), or when `dtslab.__all__` exports
it.  A method that is not a dunder is live when some other code in the
package names it; tests do not count.  A module-level constant is live
when some code in the package other than its own assignment names it.  An
import is used when its module names what it binds, or exports it from
`__all__`.
"""

import ast
import pathlib

import dtslab

PACKAGE = pathlib.Path(dtslab.__file__).parent


def modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def names_in(nodes):
    """Every identifier the nodes name, as a bare name or as an attribute."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def names_outside(trees, excluded):
    """Every identifier the package names outside the `excluded` node."""
    found = set()
    stack = list(trees.values())
    while stack:
        node = stack.pop()
        if node is excluded:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_top_level_definition_is_referenced_or_exported():
    trees = modules()
    unreferenced = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names_outside(trees, node) and node.name not in dtslab.__all__:
                unreferenced.add(f"{module}.{node.name}")
    assert unreferenced == set()


def test_every_method_is_referenced():
    # a method, classmethod, staticmethod or property is live when some other
    # code in the package names it as an attribute or a name; dunders are
    # called by the language, not by name
    trees = modules()
    unreferenced = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if node.name not in names_outside(trees, node):
                    unreferenced.add(f"{module}.{cls.name}.{node.name}")
    assert unreferenced == set()


def test_every_module_level_constant_is_named():
    named = {}  # top-level node -> the identifiers it names
    for module, tree in modules().items():
        for node in tree.body:
            named[node] = (module, names_in([node]))
    unnamed = []
    for node, (module, _) in named.items():
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if not isinstance(target, ast.Name) or target.id.startswith("__"):
                continue
            elsewhere = any(target.id in names for other, (_, names) in named.items() if other is not node)
            if not elsewhere and target.id not in dtslab.__all__:
                unnamed.append(f"{module}.{target.id}")
    assert unnamed == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in modules().items():
        imports = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        ]
        used = names_in([node for node in tree.body if node not in imports])
        if module == "__init__":
            used |= set(dtslab.__all__)
        for node in imports:
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}: {bound}")
    assert unused == []
