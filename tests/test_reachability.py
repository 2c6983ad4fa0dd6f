"""Every top-level function and class of the package is reached by the package."""

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
