"""Every name a khcube module imports is used in that module, and every
private module-level helper is referenced somewhere in the package.

A name counts as used when it appears as an identifier (the base of an
attribute access included), inside a string annotation, or in
``__all__``.  Stdlib ``ast`` only.
"""

import ast
import functools
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "khcube"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            yield from ast.literal_eval(node.value)


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree):
    names = _names(tree) | set(_exported(tree))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


@functools.lru_cache(maxsize=None)
def _trees():
    return {p: ast.parse(p.read_text(encoding="utf-8"))
            for p in SRC.glob("*.py")}


def _top_level_private(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) \
                and node.name.startswith("_") \
                and not node.name.startswith("__"):
            yield node


def _referenced(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_private_helpers_are_referenced(path):
    """A module-level ``_name`` function or class is referenced in some
    khcube module outside its own definition."""
    trees = _trees()
    unreferenced = []
    for helper in _top_level_private(trees[path]):
        seen = set()
        for p, tree in trees.items():
            for node in tree.body:
                if node is not helper:
                    seen.update(_referenced(node))
        if helper.name not in seen:
            unreferenced.append(helper.name)
    assert not unreferenced, \
        f"{path.name} defines but never references {unreferenced}"
