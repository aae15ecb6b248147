"""Properties of the package source itself."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "barydd")


def modules():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_bare_assert():
    # python -O strips assert statements; the package's checks raise
    found = []
    for name, tree in modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def names_read(tree):
    """Every name the module reads, in its code or in a string annotation
    such as ``-> "RatFun"``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name)}
    return read


def test_no_unused_import():
    # __init__.py imports names to re-export them
    found = []
    for name, tree in modules():
        if name == "__init__.py":
            continue
        read = names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {b}" for b in bound if b not in read]
    assert found == []
