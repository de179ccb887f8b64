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

The reduced variant keeps the subcomplex where the basepoint circle is
labeled minus; its q-gradings are reported unshifted (a knot's reduced
table sits in odd q, matching the parity of the unreduced one).

One routine, ``KhovanovComplex._assemble``, numbers the generators and
applies the edge plans, for the whole complex or for one q-slice.
``bigraded_complex`` materializes the whole complex when it is small
enough to hold in memory, and with ``check`` verifies d^2 = 0 on it.
``homology`` and ``rational_ranks`` stream instead: each q-slice is
assembled once, ``BigradedComplex.homology`` verifies d^2 = 0 on it once,
and a slice whose differential is not of pure bidegree (+1, 0) raises
SignInconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .chain import BigradedComplex, HomologyGroup
from .cube import MERGE, NONORIENTABLE_BAND, CubeEdge, GradedCube, build_cube
from .diagram import PlanarDiagram
from .errors import KhError, SignInconsistency
from .laurent import LaurentPoly

__all__ = ["KhovanovComplex", "assemble", "reduced_assemble", "edge_sign",
           "reidemeister_compare"]

_MATERIALIZE_LIMIT = 120_000


def edge_sign(source: Sequence[int], position: int) -> int:
    """Khovanov's predecessor rule: (-1)^(number of 1s before the
    flipped coordinate), coordinates in marked-crossing input order."""
    return -1 if sum(source[:position]) % 2 else 1


@dataclass(frozen=True)
class _EdgePlan:
    source: Tuple[int, ...]
    target: Tuple[int, ...]
    sign: int
    kind: str
    untouched: Tuple[Tuple[int, int], ...]   # (source circle, target circle)
    fused: Tuple[int, ...]                   # merge: (i1,i2,j); split: (i,j1,j2)


class KhovanovComplex:
    """Generators, differential, and homology for one diagram's cube."""

    def __init__(self, cube: GradedCube, reduced: bool = False):
        self.cube = cube
        self.reduced = reduced
        diagram = cube.diagram
        self.free_circles = diagram.free_circles
        order = diagram.marked_order
        self._pos_of_crossing = {c: i for i, c in enumerate(order)}

        keys = sorted(cube.vertices, key=self._mask_of)
        self._keys = keys
        self._p: Dict[Tuple[int, ...], int] = {}
        self._h: Dict[Tuple[int, ...], int] = {}
        self._qoff: Dict[Tuple[int, ...], int] = {}
        self._bp: Dict[Tuple[int, ...], int] = {}
        for k in keys:
            vx = cube.vertices[k]
            self._p[k] = vx.p
            self._h[k] = cube.h_offset(k)
            self._qoff[k] = cube.q_offset(k)
            self._bp[k] = vx.state.basepoint_circle if reduced else -1

        self._plans: List[_EdgePlan] = [
            p for p in (self._plan(e) for e in cube.edges) if p is not None]

    # -- bookkeeping ----------------------------------------------------

    @staticmethod
    def _mask_of(key: Tuple[int, ...]) -> int:
        m = 0
        for i, b in enumerate(key):
            m |= b << i
        return m

    def _plan(self, edge: CubeEdge) -> Optional[_EdgePlan]:
        if edge.kind == NONORIENTABLE_BAND:
            return None  # zero map, certified by the parity argument
        sv = self.cube.vertices[edge.source].state
        su = self.cube.vertices[edge.target].state
        vc, uc = sv.circles, su.circles
        index_u = {fs: j for j, fs in enumerate(uc)}
        untouched: List[Tuple[int, int]] = []
        vin: List[int] = []
        taken = set()
        for i, fs in enumerate(vc):
            j = index_u.get(fs)
            if j is None:
                vin.append(i)
            else:
                untouched.append((i, j))
                taken.add(j)
        uin = [j for j in range(len(uc)) if j not in taken]
        for t in range(self.free_circles):
            untouched.append((len(vc) + t, len(uc) + t))
        pos = self._pos_of_crossing[edge.crossing]
        sign = edge_sign(edge.source, pos)
        if edge.kind == MERGE:
            if len(vin) != 2 or len(uin) != 1:
                raise SignInconsistency(
                    f"merge edge {edge.source}->{edge.target} touches "
                    f"{len(vin)} source / {len(uin)} target circles")
            fused = (vin[0], vin[1], uin[0])
        else:
            if len(vin) != 1 or len(uin) != 2:
                raise SignInconsistency(
                    f"split edge {edge.source}->{edge.target} touches "
                    f"{len(vin)} source / {len(uin)} target circles")
            fused = (vin[0], uin[0], uin[1])
        return _EdgePlan(edge.source, edge.target, sign, edge.kind,
                         tuple(untouched), fused)

    def _popcounts(self, key: Tuple[int, ...],
                   q: Optional[int] = None) -> Sequence[int]:
        """Label popcounts at a vertex: all of them, or the one (if any)
        that puts its generators in q-grading q."""
        p, qoff = self._p[key], self._qoff[key]
        n_free = p - 1 if self.reduced else p
        if q is None:
            return range(n_free + 1)
        pc, odd = divmod(q - qoff + p, 2)
        return (pc,) if not odd and 0 <= pc <= n_free else ()

    def _vertex_masks(self, key: Tuple[int, ...],
                      popcount: int) -> Iterable[int]:
        """Label bitmasks of a given popcount at a vertex (basepoint bit
        forced 0 if reduced)."""
        positions = [i for i in range(self._p[key]) if i != self._bp[key]]
        for chosen in combinations(positions, popcount):
            m = 0
            for i in chosen:
                m |= 1 << i
            yield m

    def generator_count(self, key: Tuple[int, ...]) -> int:
        p = self._p[key]
        return 1 << (p - 1 if self.reduced else p)

    @property
    def total_generators(self) -> int:
        return sum(self.generator_count(k) for k in self._keys)

    def graded_ranks(self) -> Dict[Tuple[int, int], int]:
        """Chain-group dimensions per (h, q)."""
        out: Dict[Tuple[int, int], int] = {}
        for k in self._keys:
            h, qoff, p = self._h[k], self._qoff[k], self._p[k]
            n_free = p - 1 if self.reduced else p
            for pc in range(n_free + 1):
                q = qoff + 2 * pc - p
                count = _binom(n_free, pc)
                out[(h, q)] = out.get((h, q), 0) + count
        return out

    def euler_poly(self) -> LaurentPoly:
        """Graded Euler characteristic: sum of (-1)^h q^(q-grading)."""
        acc: Dict[int, int] = {}
        for (h, q), dim in self.graded_ranks().items():
            acc[q] = acc.get(q, 0) + (dim if h % 2 == 0 else -dim)
        return LaurentPoly(acc)

    # -- edge application -------------------------------------------------

    def _apply_plan(self, plan: _EdgePlan, mask: int) -> List[Tuple[int, int]]:
        """Map one source generator; returns (target mask, coefficient)."""
        base = 0
        for i, j in plan.untouched:
            if (mask >> i) & 1:
                base |= 1 << j
        if plan.kind == MERGE:
            i1, i2, j = plan.fused
            b1, b2 = (mask >> i1) & 1, (mask >> i2) & 1
            if b1 and b2:
                return [(base | (1 << j), plan.sign)]
            if b1 or b2:
                return [(base, plan.sign)]
            return []
        i, j1, j2 = plan.fused
        if (mask >> i) & 1:
            return [(base | (1 << j1), plan.sign), (base | (1 << j2), plan.sign)]
        return [(base, plan.sign)]

    # -- assembly -----------------------------------------------------------

    def _assemble(self, q: Optional[int] = None) -> BigradedComplex:
        """The whole complex (q None) or its q-slice, unverified.

        Generators are numbered vertex by vertex in mask order, then by
        label popcount, then by combination order; entries follow the
        edge plans in cube order.  sandbox_perturb draws its seeded
        entries in this order, so it is part of the output contract.
        """
        ids: Dict[Tuple[Tuple[int, ...], int], int] = {}
        gradings: List[Tuple[int, int]] = []
        pcs: Dict[Tuple[int, ...], Sequence[int]] = {}
        for k in self._keys:
            pcs[k] = self._popcounts(k, q)
            for pc in pcs[k]:
                grading = (self._h[k], self._qoff[k] + 2 * pc - self._p[k])
                for mask in self._vertex_masks(k, pc):
                    ids[(k, mask)] = len(gradings)
                    gradings.append(grading)
        entries: List[Tuple[int, int, int]] = []
        for plan in self._plans:
            for pc in pcs[plan.source]:
                for mask in self._vertex_masks(plan.source, pc):
                    src = ids[(plan.source, mask)]
                    for tgt_mask, coef in self._apply_plan(plan, mask):
                        tgt = ids.get((plan.target, tgt_mask))
                        if tgt is None:
                            raise SignInconsistency(
                                "edge map left its q-slice: "
                                f"{plan.source}->{plan.target}")
                        entries.append((src, tgt, coef))
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
        return sorted({self._qoff[k] + 2 * pc - self._p[k]
                       for k in self._keys for pc in self._popcounts(k)})

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


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


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
