"""The Khovanov differential on the cube of resolutions.

Generators at a vertex are labelings of the state's circles by plus/minus
basis vectors, encoded as bitmasks (set bit = plus).  Edge maps are the
Frobenius-algebra merge and split:

    merge:  ++ -> +,  +- -> -,  -+ -> -,  -- -> 0
    split:  +  -> +- and -+,    -  -> --

with identity on untouched circles, the predecessor-count edge sign, and
the zero map on nonorientable band edges (their parity certificate rules
out an orientable contribution).  The differential goes from a vertex to
its neighbors with one more 0-coordinate and raises (h, q) by exactly
(1, 0).

Vertices are the cube's integer masks, and per-vertex data are lists
indexed by mask.  Each edge with a nonzero map is stored once as a flat
tuple holding the positions of its fused circles (those through the
crossing's four arcs) at source and target.  Circles are numbered by
smallest arc with free circles last, so untouched circles keep their
relative order across an edge: a target label is the source label with
the fused source bits dropped, zero bits inserted at the fused target
positions, and those bits set by the merge or split rule.

The reduced variant keeps the subcomplex where the basepoint circle is
labeled minus; its q-gradings are reported unshifted (a knot's reduced
table sits in odd q, matching the parity of the unreduced one).

One routine, ``KhovanovComplex._assemble``, numbers the generators and
applies the edge maps, for the whole complex or for one q-slice.
``bigraded_complex`` materializes the whole complex when it is small
enough to hold in memory, and with ``check`` verifies d^2 = 0 on it.
``homology`` and ``rational_ranks`` stream instead: each q-slice is
assembled once, ``BigradedComplex.homology`` verifies d^2 = 0 on it once,
and a slice whose differential is not of pure bidegree (+1, 0) raises
SignInconsistency.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .chain import BigradedComplex, HomologyGroup
from .cube import GradedCube, build_cube
from .diagram import PlanarDiagram
from .errors import KhError, SignInconsistency
from .laurent import LaurentPoly

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


class KhovanovComplex:
    """Generators, differential, and homology for one diagram's cube."""

    def __init__(self, cube: GradedCube, reduced: bool = False):
        self.cube = cube
        self.reduced = reduced
        verts = cube.vertices
        coords = [cube.coords(v) for v in range(len(verts))]
        self._p = [vx.p for vx in verts]
        self._h = [cube.h_offset(x) for x in coords]
        self._qoff = [cube.q_offset(x) for x in coords]
        self._bp = [vx.basepoint_circle if reduced else -1 for vx in verts]
        self._edges = self._edge_maps()

    # -- bookkeeping ----------------------------------------------------

    def _edge_maps(self) -> List[Tuple[int, ...]]:
        """(source, target, sign, merge, a, b, c) for every edge whose map
        is nonzero, in (mask, coordinate) order; a, b, c as in
        _map_label."""
        cube = self.cube
        diagram = cube.diagram
        arc_pos = {arc: k for k, arc in enumerate(diagram.arcs)}
        ends = [tuple(arc_pos[arc] for arc in diagram.crossings[c])
                for c in diagram.marked_order]
        maps: List[Tuple[int, ...]] = []
        verts = cube.vertices
        for v, vx in enumerate(verts):
            for i, quad in enumerate(ends):
                if not (v >> i) & 1:
                    continue
                u = v & ~(1 << i)
                ux = verts[u]
                if ux.p == vx.p:
                    continue  # band edge: zero map, certified by parity
                merge = ux.p < vx.p
                src = sorted({vx.arc_circles[k] for k in quad})
                tgt = sorted({ux.arc_circles[k] for k in quad})
                if (len(src), len(tgt)) != ((2, 1) if merge else (1, 2)):
                    raise SignInconsistency(
                        f"{'merge' if merge else 'split'} edge "
                        f"{cube.coords(v)}->{cube.coords(u)} touches "
                        f"{len(src)} source / {len(tgt)} target circles")
                maps.append((v, u, edge_sign(v, i), merge, *src, *tgt))
        return maps

    def _popcounts(self, v: int, q: Optional[int] = None) -> Sequence[int]:
        """Label popcounts at a vertex: all of them, or the one (if any)
        that puts its generators in q-grading q."""
        p, qoff = self._p[v], self._qoff[v]
        n_free = p - 1 if self.reduced else p
        if q is None:
            return range(n_free + 1)
        pc, odd = divmod(q - qoff + p, 2)
        return (pc,) if not odd and 0 <= pc <= n_free else ()

    def _vertex_masks(self, v: int, popcount: int) -> Iterable[int]:
        """Label bitmasks of a given popcount at a vertex (basepoint bit
        forced 0 if reduced)."""
        positions = [i for i in range(self._p[v]) if i != self._bp[v]]
        for chosen in combinations(positions, popcount):
            m = 0
            for i in chosen:
                m |= 1 << i
            yield m

    @property
    def total_generators(self) -> int:
        return sum(1 << (p - 1 if self.reduced else p) for p in self._p)

    def graded_ranks(self) -> Dict[Tuple[int, int], int]:
        """Chain-group dimensions per (h, q)."""
        out: Dict[Tuple[int, int], int] = {}
        for h, qoff, p in zip(self._h, self._qoff, self._p):
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
        label popcount, then by combination order; entries follow the
        edges in (mask, coordinate) order.  sandbox_perturb draws its
        seeded entries in this order, so it is part of the output
        contract.
        """
        ids: Dict[Tuple[int, int], int] = {}
        gradings: List[Tuple[int, int]] = []
        pcs = [self._popcounts(v, q) for v in range(len(self._p))]
        for v, vertex_pcs in enumerate(pcs):
            for pc in vertex_pcs:
                grading = (self._h[v], self._qoff[v] + 2 * pc - self._p[v])
                for label in self._vertex_masks(v, pc):
                    ids[(v, label)] = len(gradings)
                    gradings.append(grading)
        entries: List[Tuple[int, int, int]] = []
        for v, u, sign, merge, a, b, c in self._edges:
            for pc in pcs[v]:
                for label in self._vertex_masks(v, pc):
                    src = ids[(v, label)]
                    for tgt_label in _map_label(label, merge, a, b, c):
                        tgt = ids.get((u, tgt_label))
                        if tgt is None:
                            raise SignInconsistency(
                                "edge map left its q-slice: "
                                f"{self.cube.coords(v)}->"
                                f"{self.cube.coords(u)}")
                        entries.append((src, tgt, sign))
        return BigradedComplex(gradings, entries)

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
        return sorted({self._qoff[v] + 2 * pc - self._p[v]
                       for v in range(len(self._p))
                       for pc in self._popcounts(v)})

    def homology(self) -> Dict[Tuple[int, int], HomologyGroup]:
        """Integral homology per (h, q), streamed by q-slice.

        The differential is q-pure, so the slices assemble the whole
        homology.  Each slice is verified (d^2 = 0) by
        BigradedComplex.homology; a slice whose differential is not of
        bidegree (+1, 0) raises SignInconsistency here.
        """
        out: Dict[Tuple[int, int], HomologyGroup] = {}
        for q in self._q_values():
            for key, grp in self._assemble(q).homology().items():
                if key is None:
                    raise SignInconsistency(
                        f"differential not pure (+1,0) on slice q={q}")
                out[key] = grp
        return out

    def rational_ranks(self) -> Dict[Tuple[int, int], int]:
        """Nonzero free ranks of the integral homology (ranks over Q)."""
        return {k: g.free_rank for k, g in self.homology().items()
                if g.free_rank}


def assemble(diagram: PlanarDiagram, strict: bool = True,
             trust_pseudo: bool = False,
             cube: Optional[GradedCube] = None) -> KhovanovComplex:
    """Build the unreduced complex for a diagram (or a prebuilt cube)."""
    if cube is None:
        cube = build_cube(diagram, strict=strict, trust_pseudo=trust_pseudo)
    return KhovanovComplex(cube, reduced=False)


def reduced_assemble(diagram: PlanarDiagram, basepoint: Optional[int] = None,
                     strict: bool = True, trust_pseudo: bool = False,
                     cube: Optional[GradedCube] = None) -> KhovanovComplex:
    """Build the reduced complex: basepoint circle labeled minus.

    The q-grading is the subcomplex's own; no overall shift is applied,
    so a knot's reduced homology lives in odd q.
    """
    if basepoint is not None:
        diagram = diagram.with_basepoint(basepoint)
        cube = None
    if cube is None:
        cube = build_cube(diagram, strict=strict, trust_pseudo=trust_pseudo)
    return KhovanovComplex(cube, reduced=True)


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
