"""Spans around khcube's public calls, installed from outside the package.

``Tracer.install`` replaces each public function or method listed in
``_TARGETS`` with a wrapper, at every place the name is looked up:
``khovanov`` calls ``build_cube`` through its own module global,
``filtration`` calls ``rank_over_q`` through its own, and
``BigradedComplex.homology`` calls ``chain.smith_normal_form``.
Private helpers such as ``_slice_complex`` and ``_cancel_units`` are not
wrapped, so their time is the self time of the public method calling
them.  Nothing in ``src/`` changes.

A span records its name, start, end, parent span and item.  Counts are
taken at the same boundaries and stored on the span.  Spans stay in
memory; ``write`` puts them in a JSON-lines file when the run ends.
"""

from __future__ import annotations

import functools
import json
import resource
from time import perf_counter
from typing import Dict, List

from khcube.cube import NONORIENTABLE_BAND


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- counts taken when a wrapped call returns --------------------------------


def _cube_counts(args, kwargs, cube) -> dict:
    band = sum(1 for e in cube.edges if e.kind == NONORIENTABLE_BAND)
    return {"vertices": len(cube.vertices), "edges": len(cube.edges),
            "band_edges": band}


def _khovanov_counts(args, kwargs, _result) -> dict:
    return {"generators": args[0].total_generators}


def _complex_counts(args, kwargs, _result) -> dict:
    cx = args[0]
    return {"generators": cx.n_generators,
            "nnz": sum(len(row) for row in cx.out.values())}


def _homology_counts(args, kwargs, _result) -> dict:
    return {"generators": args[0].n_generators}


def _snf_counts(args, kwargs, _result) -> dict:
    return {"cols": args[0].ncols}


def _page_counts(args, kwargs, pages) -> dict:
    return {"pages": len(pages)}


# (span name, module or class path, attribute, count hook, track peak RSS).
# A module path lists every module whose global the name is looked up in.
_TARGETS = (
    ("diagram.braid_closure", ("braids", "corpus"), "braid_closure", None, False),
    ("diagram.build", ("diagram.PlanarDiagram",), "build", None, False),
    ("diagram.with_marked", ("diagram.PlanarDiagram",), "with_marked", None, False),
    ("diagram.corpus_get", ("corpus",), "get", None, False),
    ("cube.build_cube", ("cube", "khovanov"), "build_cube", _cube_counts, True),
    ("khovanov.init", ("khovanov.KhovanovComplex",), "__init__",
     _khovanov_counts, True),
    ("khovanov.homology", ("khovanov.KhovanovComplex",), "homology", None, False),
    ("khovanov.rational_ranks", ("khovanov.KhovanovComplex",), "rational_ranks",
     None, False),
    ("khovanov.bigraded_complex", ("khovanov.KhovanovComplex",),
     "bigraded_complex", None, False),
    ("chain.complex_init", ("chain.BigradedComplex",), "__init__",
     _complex_counts, False),
    ("chain.check_square_zero", ("chain.BigradedComplex",), "check_square_zero",
     None, False),
    ("chain.homology", ("chain.BigradedComplex",), "homology",
     _homology_counts, False),
    ("chain.smith_normal_form", ("chain",), "smith_normal_form", _snf_counts,
     False),
    ("chain.rank_over_q", ("chain", "filtration"), "rank_over_q", None, False),
    ("chain.matmul", ("chain.SparseIntMatrix",), "__matmul__", None, False),
    ("filtration.spectral_sequence", ("filtration",), "spectral_sequence",
     _page_counts, False),
    ("filtration.sandbox_perturb", ("filtration",), "sandbox_perturb", None,
     False),
    ("invariants.alexander", ("invariants",), "alexander", None, False),
    ("invariants.differential_feasibility", ("invariants",),
     "differential_feasibility", None, False),
)

# Span fields.
NAME, START, END, PARENT, ITEM, ATTRS = range(6)


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so output checks run untraced."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.active = False
        self.item = -1

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, counts=None, track_rss: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rss0 = _maxrss_mb() if track_rss else 0.0
            span = tracer._open(name)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()
            attrs = counts(args, kwargs, result) if counts else {}
            if track_rss:
                attrs["rss_delta_mb"] = _maxrss_mb() - rss0
            span[ATTRS] = attrs or None
            return result
        return wrapper

    def begin_item(self, item: int) -> None:
        self.item = item
        self.active = True
        self._open("item")[START] = perf_counter()

    def end_item(self) -> None:
        self.spans[self._stack.pop()][END] = perf_counter()
        self.active = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import khcube

        for name, owners, attr, counts, track_rss in _TARGETS:
            for path in owners:
                owner = khcube
                for part in path.split("."):
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self.wrap(name, raw.__func__, counts, track_rss))
                else:
                    wrapped = self.wrap(name, raw, counts, track_rss)
                setattr(owner, attr, wrapped)

    # -- reporting -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer busy times and counts; see BENCHMARK.json."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                covered[s[PARENT]] += dur[i]

        total: Dict[str, float] = {}
        own: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        attrs: Dict[str, float] = {}
        diagram_s = 0.0
        slices = slice_nnz = 0
        for i, s in enumerate(spans):
            name = s[NAME]
            total[name] = total.get(name, 0.0) + dur[i]
            own[name] = own.get(name, 0.0) + dur[i] - covered[i]
            calls[name] = calls.get(name, 0) + 1
            for key, v in (s[ATTRS] or {}).items():
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + v
            up = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if name.startswith("diagram.") and not up.startswith("diagram."):
                diagram_s += dur[i]
            if name == "chain.complex_init" and up.startswith("khovanov."):
                slices += 1
                slice_nnz += (s[ATTRS] or {}).get("nnz", 0)

        def t(name):
            return total.get(name, 0.0)

        survivors = attrs.get("chain.smith_normal_form.cols", 0)
        entering = attrs.get("chain.homology.generators", 0)
        return {
            "diagram.build_s": diagram_s,
            "cube.build_s": t("cube.build_cube"),
            "cube.vertices": attrs.get("cube.build_cube.vertices", 0),
            "cube.edges": attrs.get("cube.build_cube.edges", 0),
            "cube.band_edges": attrs.get("cube.build_cube.band_edges", 0),
            "cube.rss_delta_mb": attrs.get("cube.build_cube.rss_delta_mb", 0.0),
            "khovanov.init_s": t("khovanov.init"),
            "khovanov.rss_delta_mb": attrs.get("khovanov.init.rss_delta_mb", 0.0),
            "khovanov.assembly_s": sum(
                own.get(n, 0.0) for n in ("khovanov.homology",
                                          "khovanov.rational_ranks",
                                          "khovanov.bigraded_complex")),
            "khovanov.generators": attrs.get("khovanov.init.generators", 0),
            "khovanov.slices": slices,
            "khovanov.nnz": slice_nnz,
            "chain.complex_init_s": t("chain.complex_init"),
            "chain.square_zero_s": t("chain.check_square_zero"),
            "chain.square_zero_per_slice":
                calls.get("chain.check_square_zero", 0) / slices if slices
                else 0.0,
            "chain.cancel_s": own.get("chain.homology", 0.0),
            "chain.survivors": survivors,
            "chain.cancel_ratio": survivors / entering if entering else 0.0,
            "chain.snf_s": t("chain.smith_normal_form"),
            "chain.snf_calls": calls.get("chain.smith_normal_form", 0),
            "chain.rank_q_s": t("chain.rank_over_q"),
            "chain.rank_q_calls": calls.get("chain.rank_over_q", 0),
            "chain.matmul_s": t("chain.matmul"),
            "filtration.ss_self_s": own.get("filtration.spectral_sequence", 0.0),
            "filtration.pages": attrs.get("filtration.spectral_sequence.pages", 0),
            "filtration.perturb_s": t("filtration.sandbox_perturb"),
            "invariants.alexander_s": t("invariants.alexander"),
            "invariants.feasibility_s":
                t("invariants.differential_feasibility"),
        }
