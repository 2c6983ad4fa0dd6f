"""Every top-level function and class of the package is reached by the package,
every method of a package class is named in it, and every name a package
module imports is used there."""

import ast
from pathlib import Path

import selffield

TREES = {path.stem: ast.parse(path.read_text())
         for path in Path(selffield.__file__).parent.glob("*.py")}


def test_every_definition_is_referenced_or_exported():
    # referenced: named (as a Name or an Attribute) in a module other than
    # __init__; exported: imported by __init__
    exported = {alias.name for node in ast.walk(TREES["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for module, tree in TREES.items() if module != "__init__"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unreached = sorted(f"{module}.{node.name}" for module, tree in TREES.items()
                       for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name not in referenced | exported)
    assert unreached == []


def test_every_import_is_used():
    # every name a module other than __init__ imports (at module level or
    # inside a function) is named in that module; __init__ imports to export
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                unused += [f"{module}.{name}" for alias in node.names
                           if (name := (alias.asname or alias.name).partition(".")[0])
                           not in named]
    assert unused == []


def test_every_method_is_named_in_the_package():
    # a non-dunder method or property of a package class is named (as a Name
    # or an Attribute) somewhere in the package, its own module included
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    unnamed = sorted(f"{module}.{cls.name}.{node.name}"
                     for module, tree in TREES.items()
                     for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for node in cls.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (node.name.startswith("__") and node.name.endswith("__"))
                     and node.name not in named)
    assert unnamed == []
