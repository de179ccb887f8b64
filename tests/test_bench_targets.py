"""Every name ``bench/tracer.py`` wraps still exists in khcube.

``bench/tracer.py`` lists in ``_TARGETS`` the (owner path, attribute)
pairs it wraps for ``bench/run.py --trace 1``.  The list is read with
``ast`` and each pair is resolved against the package, without
installing any wrapper, so deleting or renaming a traced name fails
here rather than in a traced benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = (pathlib.Path(__file__).resolve().parent.parent
          / "bench" / "tracer.py")


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_TARGETS"
                for t in node.targets):
            for entry in node.value.elts:
                owners = ast.literal_eval(entry.elts[1])
                attr = ast.literal_eval(entry.elts[2])
                for path in owners:
                    yield path, attr
            return
    raise AssertionError("bench/tracer.py defines no _TARGETS")


TARGETS = list(_targets())


def test_targets_found():
    assert len(TARGETS) > 10


@pytest.mark.parametrize("path, attr", TARGETS,
                         ids=[f"{p}.{a}" for p, a in TARGETS])
def test_traced_target_resolves(path, attr):
    # The first part names a khcube module, the rest attributes within it.
    module, *rest = path.split(".")
    owner = importlib.import_module(f"khcube.{module}")
    for part in rest:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # The tracer replaces the class's own attribute, not an inherited one.
        assert attr in owner.__dict__, f"{path} defines no {attr}"
    else:
        assert callable(getattr(owner, attr, None)), \
            f"khcube.{path} has no function {attr}"
