"""Bundled diagrams and input loading.

The corpus covers the standard small examples every test layer leans
on: unknot, trefoil, figure-eight, Hopf link, the (4,5) torus knot as a
15-crossing braid closure, and two 2-crossing clasps with one crossing
left undetermined (their 1-dimensional cubes each consist of a single
nonorientable-band edge, the smallest inputs exercising the grading
corrections).  ``reidemeister_pairs`` returns closures differing by
exactly one Reidemeister move (R1 via a Markov stabilization, R2 via a
cancelling pair, R3 via the braid relation), two orientations each.

``load_diagram`` resolves any CLI input: a bundled name, a path to a
file, inline PD text like ``X(2,5,1,4) X(4,1,3,6) X(6,3,5,2)``, or a
JSON object with fields ``pd`` | ``braid``, and optional ``marked``,
``free_circles``, ``basepoint``, ``strands``.
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Dict, Tuple

from .braids import braid_closure
from .diagram import PlanarDiagram, _is_int, _is_int_list
from .errors import MalformedPD

__all__ = ["names", "get", "reidemeister_pairs", "parse_pd_text",
           "load_diagram"]


_BUILDERS: Dict[str, Callable[[], PlanarDiagram]] = {
    "unknot": lambda: PlanarDiagram.build([], free_circles=1),
    "trefoil": lambda: PlanarDiagram.build(
        [(2, 5, 1, 4), (4, 1, 3, 6), (6, 3, 5, 2)]),
    "figure8": lambda: PlanarDiagram.build(
        [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]),
    "hopf": lambda: braid_closure([1, 1]),
    "t45": lambda: braid_closure([1, 2, 3] * 5),
    # One undetermined crossing (index 0) over a clasp: a 2-vertex cube
    # whose only edge is a nonorientable band.  clasp-minus mirrors the
    # retained crossing (its tuple starts one slot later).
    "clasp-plus": lambda: PlanarDiagram.build(
        [(1, 2, 3, 4), (1, 4, 3, 2)], marked=[0]),
    "clasp-minus": lambda: PlanarDiagram.build(
        [(1, 2, 3, 4), (2, 1, 4, 3)], marked=[0]),
}


def names() -> Tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def get(name: str) -> PlanarDiagram:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise MalformedPD(
            f"unknown corpus diagram {name!r}; bundled: {', '.join(names())}"
        ) from None


def reidemeister_pairs() -> Tuple[Tuple[str, PlanarDiagram,
                                        PlanarDiagram], ...]:
    """Six (label, before, after) pairs, one move apart."""
    words = [
        ("r1-positive-kink", [1, 1, 1], [1, 1, 1, 2]),
        ("r1-negative-kink", [1, 1, 1], [1, 1, 1, -2]),
        ("r2-cancel-right", [1, 1, 1], [1, 1, 1, 1, -1]),
        ("r2-cancel-left", [1, 1, 1], [1, 1, 1, -1, 1]),
        ("r3-positive", [1, 2, 1, 2], [2, 1, 2, 2]),
        ("r3-negative", [-1, -2, -1, -2], [-2, -1, -2, -2]),
    ]
    return tuple((label, braid_closure(a), braid_closure(b))
                 for label, a, b in words)


_PD_TOKEN = re.compile(r"[Xx]\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,"
                       r"\s*(\d+)\s*\)")


def parse_pd_text(text: str) -> PlanarDiagram:
    """Parse ``X(a,b,c,d)``-token PD text into a diagram."""
    body = text.strip()
    if body.upper().startswith("PD[") and body.endswith("]"):
        body = body[3:-1]
    crossings = [tuple(int(g) for g in m.groups())
                 for m in _PD_TOKEN.finditer(body)]
    leftover = _PD_TOKEN.sub("", body).strip(" ,;\t\r\n")
    if leftover:
        raise MalformedPD(f"unparsed PD text: {leftover!r}")
    if not crossings:
        raise MalformedPD("no X(a,b,c,d) tokens found")
    return PlanarDiagram.build(crossings)


# Field -> (type check, what it must be); None stands for the default.
_JSON_FIELDS: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "pd": (lambda v: isinstance(v, list)
           and all(_is_int_list(x, 4) for x in v),
           "a list of 4-integer lists"),
    "braid": (_is_int_list, "a list of integers"),
    "strands": (lambda v: v is None or _is_int(v), "an integer"),
    "marked": (lambda v: v is None or _is_int_list(v),
               "a list of integers"),
    "free_circles": (_is_int, "an integer"),
    "basepoint": (lambda v: v is None or _is_int(v), "an integer arc label"),
}


def _from_json(obj: dict) -> PlanarDiagram:
    if not isinstance(obj, dict):
        raise MalformedPD(f"diagram JSON must be an object, got {type(obj)}")
    extra = set(obj) - set(_JSON_FIELDS)
    if extra:
        raise MalformedPD(f"unknown diagram JSON fields: {sorted(extra)}")
    for key, value in obj.items():
        ok, want = _JSON_FIELDS[key]
        if not ok(value):
            raise MalformedPD(f"diagram JSON field {key!r} must be {want}")
    has_pd = "pd" in obj
    has_braid = "braid" in obj
    if has_pd == has_braid:
        raise MalformedPD("diagram JSON needs exactly one of 'pd', 'braid'")
    if has_braid:
        for key in ("marked", "free_circles", "basepoint"):
            if key in obj:
                raise MalformedPD(f"{key!r} only applies to 'pd' input")
        return braid_closure(obj["braid"], strands=obj.get("strands"))
    if "strands" in obj:
        raise MalformedPD("'strands' only applies to 'braid' input")
    return PlanarDiagram.build(
        obj["pd"],
        marked=obj.get("marked"),
        free_circles=obj.get("free_circles", 0),
        basepoint=obj.get("basepoint"),
    )


def load_diagram(source: str) -> PlanarDiagram:
    """Resolve a corpus name, a file path, inline JSON, or inline PD text."""
    text = source
    if source in _BUILDERS:
        return _BUILDERS[source]()
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MalformedPD(f"invalid JSON: {exc}") from None
        return _from_json(obj)
    return parse_pd_text(stripped)
