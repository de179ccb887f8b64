"""The Khovanov complex of a diagram: its cube, and which route computes
its homology.

Routes.  ``homology`` and ``rational_ranks`` of a genuine diagram (no
retained crossings) go through ``khcube.local``, Bar-Natan's local
scan, and never build the cube.  A pseudo-diagram streams its cube by
q-slice.  ``bigraded_complex`` always materializes the cube complex
(spectral sequences, the sandbox, ``kh cube`` and ``kh verify`` read
it), and is the oracle the local scan is tested against.  The cube is
built on first use of ``cube``, ``bigraded_complex``,
``total_generators``, ``graded_ranks`` or ``euler_poly``; a
pseudo-diagram builds and checks it at assembly.

Generators at a vertex are labelings of the state's circles by plus/minus
basis vectors, encoded as bitmasks (set bit = plus).  Edge maps are the
Frobenius-algebra merge and split:

    merge:  ++ -> +,  +- -> -,  -+ -> -,  -- -> 0
    split:  +  -> +- and -+,    -  -> --

with identity on untouched circles, the predecessor-count edge sign, and
the zero map on nonorientable band edges (``build_cube`` has checked
that each one has writhe defect +-2).  The differential goes from a vertex to
its neighbors with one more 0-coordinate and raises (h, q) by exactly
(1, 0).

Vertices are the cube's integer masks, and per-vertex data are lists
indexed by mask; the (h, q) offsets come from
``GradedCube.grading_offsets``.  Each edge with a nonzero map is stored
once as (source, target, sign, images): a rule (merge, a, b, c) holds
the positions of the fused circles at source and target, read off two
arcs of the crossing, and one table of each label's images under it,
filled on demand, serves every edge with that rule.  Circles are
numbered by smallest arc with free circles last, so untouched circles
keep their relative order across an edge: a target label is the source
label with the fused source bits dropped, zero bits inserted at the
fused target positions, and those bits set by the merge or split rule.

The reduced variant keeps the subcomplex where the basepoint circle is
labeled minus; its q-gradings are reported unshifted (a knot's reduced
table sits in odd q, matching the parity of the unreduced one).

One routine, ``KhovanovComplex._assemble``, numbers the generators and
applies the edge maps, for the whole complex or for one q-slice.  Each
vertex gets one {label: id} table, and each edge writes its entries
straight into the {src: {tgt: sign}} rows that ``BigradedComplex``
keeps, d^2 = 0 checks and cancellation reduces.  ``bigraded_complex``
materializes the whole complex when it is small enough to hold in
memory, and with ``check`` verifies d^2 = 0 on it.  On the cube route
``homology`` streams instead: each q-slice is assembled once,
``BigradedComplex.homology`` verifies d^2 = 0 on it once and then
cancels units in the slice's own rows (no caller holds the slice, so it
needs no copy), and a slice whose differential is not of pure bidegree
(+1, 0) raises SignInconsistency.  The local route hands its one final
complex to the same ``BigradedComplex.homology``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .chain import BigradedComplex, HomologyGroup
from .cube import GradedCube, build_cube
from .diagram import PlanarDiagram
from .errors import KhError, SignInconsistency
from .laurent import LaurentPoly
from .local import scan_complex

__all__ = ["KhovanovComplex", "assemble", "reduced_assemble", "edge_sign",
           "reidemeister_compare"]

_MATERIALIZE_LIMIT = 120_000


def edge_sign(source: int, position: int) -> int:
    """Khovanov's predecessor rule on a vertex mask: (-1)^(number of 1s
    below the flipped bit), bits in marked-crossing input order."""
    return -1 if (source & ((1 << position) - 1)).bit_count() % 2 else 1


def _drop(label: int, i: int) -> int:
    """Remove bit i, shifting the higher bits down."""
    return (label & ((1 << i) - 1)) | ((label >> (i + 1)) << i)


def _insert(label: int, j: int) -> int:
    """Insert a zero bit at position j, shifting the higher bits up."""
    return (label & ((1 << j) - 1)) | ((label >> j) << (j + 1))


def _map_label(label: int, merge: bool, a: int, b: int,
               c: int) -> Tuple[int, ...]:
    """Target labels of one source label: merge fuses source circles
    a < b into target circle c; split takes source circle a to target
    circles b < c."""
    if merge:
        base = _insert(_drop(_drop(label, b), a), c)
        x, y = (label >> a) & 1, (label >> b) & 1
        if x and y:
            return (base | (1 << c),)
        return (base,) if x or y else ()
    base = _insert(_insert(_drop(label, a), b), c)
    if (label >> a) & 1:
        return (base | (1 << b), base | (1 << c))
    return (base,)


class _Images(Dict[int, Tuple[int, ...]]):
    """_map_label under one rule (merge, a, b, c), filled on demand and
    shared by every edge with that rule."""

    def __init__(self, rule: Tuple[bool, int, int, int]):
        super().__init__()
        self.rule = rule

    def __missing__(self, label: int) -> Tuple[int, ...]:
        images = self[label] = _map_label(label, *self.rule)
        return images


class KhovanovComplex:
    """Generators, differential, and homology for one diagram."""

    def __init__(self, diagram: PlanarDiagram, reduced: bool = False,
                 trust_pseudo: bool = False,
                 cube: Optional[GradedCube] = None):
        self.diagram = diagram
        self.reduced = reduced
        self._trust_pseudo = trust_pseudo
        if cube is None and diagram.retained:
            # Pseudo-diagrams need the cube for everything: build and
            # check it now, so a bad diagram fails at assembly.
            cube = build_cube(diagram, trust_pseudo=trust_pseudo)
        if cube is not None:
            self.__dict__["cube"] = cube

    @cached_property
    def cube(self) -> GradedCube:
        return build_cube(self.diagram, trust_pseudo=self._trust_pseudo)

    @cached_property
    def _layout(self) -> Tuple[List[int], Sequence[int], Sequence[int],
                               List[int]]:
        """Per vertex mask: circle count, h, q - Q, basepoint circle."""
        cube = self.cube
        verts = cube.vertices
        h, qoff = zip(*map(cube.grading_offsets, range(len(verts))))
        return ([vx.p for vx in verts], h, qoff,
                [vx.basepoint_circle if self.reduced else -1
                 for vx in verts])

    # -- bookkeeping ----------------------------------------------------

    @cached_property
    def _edges(self) -> List[Tuple[int, int, int, _Images]]:
        """(source, target, sign, label images) for every edge whose map
        is nonzero, in (mask, coordinate) order.

        The 1-resolution joins arcs (a, d) and (b, c) of a crossing
        X(a, b, c, d) and the 0-resolution joins (a, b) and (c, d), so
        arcs a and b name the fused circles at the source and arcs a and
        c those at the target.
        """
        cube = self.cube
        diagram = cube.diagram
        arc_pos = {arc: k for k, arc in enumerate(diagram.arcs)}
        ends = [tuple(arc_pos[arc] for arc in diagram.crossings[c][:3])
                for c in diagram.marked_order]
        circles = [vx.arc_circles for vx in cube.vertices]
        ps = self._layout[0]
        rules: Dict[Tuple[bool, int, int, int], _Images] = {}
        maps: List[Tuple[int, int, int, _Images]] = []
        for v, at_v in enumerate(circles):
            pv = ps[v]
            for i, (ka, kb, kc) in enumerate(ends):
                bit = 1 << i
                if not v & bit:
                    continue
                u = v ^ bit
                pu = ps[u]
                if pu == pv:
                    # Band edge: zero map.  GradedCube._classify has
                    # required writhe defect +-2 on it.
                    continue
                merge = pu < pv
                s0, s1 = at_v[ka], at_v[kb]
                t0, t1 = circles[u][ka], circles[u][kc]
                if (s0 != s1) != merge or (t0 != t1) == merge:
                    raise SignInconsistency(
                        f"{'merge' if merge else 'split'} edge "
                        f"{cube.coords(v)}->{cube.coords(u)} touches "
                        f"{1 + (s0 != s1)} source / {1 + (t0 != t1)} "
                        "target circles")
                lo, hi = (s0, s1) if merge else (t0, t1)
                if lo > hi:
                    lo, hi = hi, lo
                rule = (True, lo, hi, t0) if merge else (False, s0, lo, hi)
                images = rules.get(rule)
                if images is None:
                    images = rules[rule] = _Images(rule)
                maps.append((v, u, edge_sign(v, i), images))
        return maps

    def _popcounts(self, v: int, q: Optional[int] = None) -> Sequence[int]:
        """Label popcounts at a vertex: all of them, or the one (if any)
        that puts its generators in q-grading q."""
        ps, _, qoffs, _ = self._layout
        p, qoff = ps[v], qoffs[v]
        n_free = p - 1 if self.reduced else p
        if q is None:
            return range(n_free + 1)
        pc, odd = divmod(q - qoff + p, 2)
        return (pc,) if not odd and 0 <= pc <= n_free else ()

    def _vertex_masks(self, v: int, popcount: int) -> Iterable[int]:
        """Label bitmasks of a given popcount at a vertex (basepoint bit
        forced 0 if reduced)."""
        ps, _, _, bps = self._layout
        positions = [i for i in range(ps[v]) if i != bps[v]]
        for chosen in combinations(positions, popcount):
            m = 0
            for i in chosen:
                m |= 1 << i
            yield m

    @property
    def total_generators(self) -> int:
        return sum(1 << (p - 1 if self.reduced else p)
                   for p in self._layout[0])

    def graded_ranks(self) -> Dict[Tuple[int, int], int]:
        """Chain-group dimensions per (h, q)."""
        out: Dict[Tuple[int, int], int] = {}
        ps, hs, qoffs, _ = self._layout
        for h, qoff, p in zip(hs, qoffs, ps):
            n_free = p - 1 if self.reduced else p
            for pc in range(n_free + 1):
                q = qoff + 2 * pc - p
                out[(h, q)] = out.get((h, q), 0) + comb(n_free, pc)
        return out

    def euler_poly(self) -> LaurentPoly:
        """Graded Euler characteristic: sum of (-1)^h q^(q-grading)."""
        acc: Dict[int, int] = {}
        for (h, q), dim in self.graded_ranks().items():
            acc[q] = acc.get(q, 0) + (dim if h % 2 == 0 else -dim)
        return LaurentPoly(acc)

    # -- assembly -----------------------------------------------------------

    def _assemble(self, q: Optional[int] = None) -> BigradedComplex:
        """The whole complex (q None) or its q-slice, unverified.

        Generators are numbered vertex by vertex in mask order, then by
        label popcount, then by combination order; each vertex gets one
        {label: id} table.  Rows are written straight into the
        {src: {tgt: sign}} map the complex keeps, a row when its first
        entry appears, entries in edge order ((mask, coordinate), then
        image order).  Nothing needs summing: distinct edges from a
        vertex reach distinct targets, split images are distinct and
        every coefficient is the edge sign.  sandbox_perturb draws its
        seeded entries in this order, so it is part of the output
        contract.
        """
        gradings: List[Tuple[int, int]] = []
        tables: List[Dict[int, int]] = []
        ps, hs, qoffs, _ = self._layout
        for v, p in enumerate(ps):
            table: Dict[int, int] = {}
            for pc in self._popcounts(v, q):
                grading = (hs[v], qoffs[v] + 2 * pc - p)
                for label in self._vertex_masks(v, pc):
                    table[label] = len(gradings)
                    gradings.append(grading)
            tables.append(table)
        out: Dict[int, Dict[int, int]] = {}
        for v, u, sign, images_of in self._edges:
            sources = tables[v]
            if not sources:
                continue
            targets = tables[u]
            for label, src in sources.items():
                images = images_of[label]
                if not images:
                    continue
                row = out.get(src)
                if row is None:
                    row = out[src] = {}
                for image in images:
                    tgt = targets.get(image)
                    if tgt is None:
                        raise SignInconsistency(
                            "edge map left its q-slice: "
                            f"{self.cube.coords(v)}->"
                            f"{self.cube.coords(u)}")
                    row[tgt] = sign
        return BigradedComplex(gradings, out)

    def bigraded_complex(self, check: bool = True,
                         limit: Optional[int] = _MATERIALIZE_LIMIT) -> BigradedComplex:
        total = self.total_generators
        if limit is not None and total > limit:
            raise KhError(
                f"complex has {total} generators, beyond the materialization "
                f"limit {limit}; use homology()/rational_ranks() which stream")
        cx = self._assemble()
        if check:
            cx.check_square_zero()
        return cx

    # -- streaming homology -------------------------------------------------

    def _q_values(self) -> List[int]:
        ps, _, qoffs, _ = self._layout
        return sorted({qoffs[v] + 2 * pc - ps[v] for v in range(len(ps))
                       for pc in self._popcounts(v)})

    def _complexes(self) -> Iterator[Tuple[str, BigradedComplex]]:
        """Complexes whose homologies make up the diagram's: for a
        genuine diagram the one the local scan leaves, else each
        q-slice of the cube."""
        if not self.diagram.retained:
            yield "local scan", scan_complex(self.diagram, self.reduced)
            return
        for q in self._q_values():
            yield f"slice q={q}", self._assemble(q)

    def homology(self) -> Dict[Tuple[int, int], HomologyGroup]:
        """Integral homology per (h, q).

        A genuine diagram goes through the local scan (``khcube.local``)
        and builds no cube; a pseudo-diagram streams its cube by
        q-slice, which the q-pure differential allows.  Each complex is
        verified (d^2 = 0) by BigradedComplex.homology; one whose
        differential is not of bidegree (+1, 0) raises SignInconsistency
        here.
        """
        out: Dict[Tuple[int, int], HomologyGroup] = {}
        for where, cx in self._complexes():
            cx._disposable = True   # no caller holds it: cancel in place
            for key, grp in cx.homology().items():
                if key is None:
                    raise SignInconsistency(
                        f"differential not pure (+1,0) on {where}")
                out[key] = grp
        return out

    def rational_ranks(self) -> Dict[Tuple[int, int], int]:
        """Nonzero free ranks of the integral homology (ranks over Q)."""
        return {k: g.free_rank for k, g in self.homology().items()
                if g.free_rank}


def assemble(diagram: PlanarDiagram, trust_pseudo: bool = False,
             cube: Optional[GradedCube] = None) -> KhovanovComplex:
    """The unreduced complex of a diagram (or of a prebuilt cube)."""
    return KhovanovComplex(diagram, False, trust_pseudo, cube)


def reduced_assemble(diagram: PlanarDiagram, basepoint: Optional[int] = None,
                     trust_pseudo: bool = False,
                     cube: Optional[GradedCube] = None) -> KhovanovComplex:
    """Build the reduced complex: basepoint circle labeled minus.

    The q-grading is the subcomplex's own; no overall shift is applied,
    so a knot's reduced homology lives in odd q.
    """
    if basepoint is not None:
        diagram = diagram.with_basepoint(basepoint)
        cube = None
    return KhovanovComplex(diagram, True, trust_pseudo, cube)


def _homology_table(diagram: PlanarDiagram, reduced: bool):
    kc = (reduced_assemble if reduced else assemble)(diagram)
    return {k: (g.free_rank, g.torsion) for k, g in kc.homology().items()}


def reidemeister_compare(d1: PlanarDiagram, d2: PlanarDiagram,
                         reduced: bool = False) -> dict:
    """Compare bigraded integral homology tables of two diagrams.

    Reports equality and, when unequal, the first differing bigrading in
    lexicographic order.
    """
    t1 = _homology_table(d1, reduced)
    t2 = _homology_table(d2, reduced)
    if t1 == t2:
        return {"equal": True, "table_size": len(t1)}
    diffs = sorted(set(t1) ^ set(t2)) + sorted(
        k for k in set(t1) & set(t2) if t1[k] != t2[k])
    first = diffs[0]

    def fmt(t, k):
        if k not in t:
            return None
        free, tor = t[k]
        return {"free_rank": free, "torsion": list(tor)}

    return {"equal": False, "first_difference": {
        "bigrading": list(first),
        "left": fmt(t1, first), "right": fmt(t2, first)}}
