"""The cube of resolutions with self-intersection bookkeeping and gradings.

Vertices are resolution vectors v over the marked crossing set, keyed
by integer mask (bit i is coordinate i of ``diagram.marked_order``);
each keeps the circle of every arc, not the resolved state.  Edges go
from v to u = v - e_c (the differential direction: it lowers the vector
and raises the h-grading); ``build_cube`` checks each once and
``edges`` derives them on demand.  Each edge carries the kind of its
elementary cobordism, classified by the circle-count change, and a
self-intersection number sigma_elem computed as the writhe difference
of the two resolved unlink states.

Self-intersection numbers between arbitrary comparable vertices come from
a potential: phi(x) = w(state of r(x)) + (2/3) * sum(x - r(x)) where r
reduces each entry mod 3 into {0,1}.  Differences of a potential are
automatically additive, antisymmetric, and telescoping; entries congruent
to 2 mod 3 are outside the domain (they would leave a crossing retained).

Gradings (with o the oriented resolution, n+/n- marked-crossing sign
counts, Q the circle-label grading):

    h(v)    = -sum(v) + sigma(v,o)/2     + n-
    q(v, Q) = Q - sum(v) + 3*sigma(v,o)/2 - n+ + 2*n-

For genuine diagrams sigma vanishes identically and these reduce to
classical Khovanov gradings up to overall sign of (h,q); the engine's
tables are therefore mirror-paired with the usual ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import List, Optional, Sequence, Tuple

from .diagram import UNLINK_VERIFIED, PlanarDiagram
from .errors import (NotAPseudoDiagram, OutOfDomain, SignInconsistency,
                     UnknownCrossingId)

__all__ = [
    "MERGE", "SPLIT", "NONORIENTABLE_BAND",
    "CubeVertex", "CubeEdge", "GradedCube",
    "build_cube",
]

MERGE = "Merge"
SPLIT = "Split"
NONORIENTABLE_BAND = "NonorientableBand"


@dataclass(frozen=True)
class CubeVertex:
    p: int                      # circle count
    writhe: int                 # of the retained-crossing unlink state
    unlink_status: str          # UNLINK_VERIFIED / UNLINK_UNVERIFIED
    arc_circles: Tuple[int, ...]  # circle of each arc, in diagram.arcs order
    basepoint_circle: int


@dataclass(frozen=True)
class CubeEdge:
    source: Tuple[int, ...]     # v, with v >= target
    target: Tuple[int, ...]     # u = v - e_c
    crossing: int               # marked crossing id where they differ
    kind: str                   # MERGE / SPLIT / NONORIENTABLE_BAND
    sigma_elem: int             # w(source state) - w(target state)
    chi: int = -1               # one elementary saddle


@dataclass
class GradedCube:
    diagram: PlanarDiagram
    vertices: List[CubeVertex]  # indexed by mask
    n_plus: int
    n_minus: int
    o: Tuple[int, ...]          # oriented resolution of the marked set
    trust_pseudo: bool = False

    # -- basic views ---------------------------------------------------

    @property
    def n_marked(self) -> int:
        return len(self.o)

    def coords(self, mask: int) -> Tuple[int, ...]:
        """The resolution vector of a vertex mask."""
        return tuple((mask >> i) & 1 for i in range(self.n_marked))

    def _mask(self, v: Sequence[int]) -> Optional[int]:
        """The mask of a 0/1 vector of length |N|, else None."""
        if len(v) != self.n_marked or any(b not in (0, 1) for b in v):
            return None
        return sum(int(b) << i for i, b in enumerate(v))

    def vertex(self, v: Sequence[int]) -> CubeVertex:
        mask = self._mask(v)
        if mask is None:
            raise UnknownCrossingId(
                f"no cube vertex {tuple(int(b) for b in v)}")
        return self.vertices[mask]

    def edge(self, v: Sequence[int], u: Sequence[int]) -> CubeEdge:
        mv, mu = self._mask(v), self._mask(u)
        flip = None if mv is None or mu is None else mv ^ mu
        if not flip or flip & (flip - 1) or mu & flip:
            raise UnknownCrossingId(
                f"no cube edge {tuple(v)} -> {tuple(u)}")
        return self._edge(mv, flip.bit_length() - 1)

    @property
    def edges(self) -> List[CubeEdge]:
        """Every edge, built on demand, by source mask then coordinate."""
        n = self.n_marked
        return [self._edge(v, i) for v in range(1 << n) for i in range(n)
                if (v >> i) & 1]

    def _edge(self, v: int, i: int) -> CubeEdge:
        u = v & ~(1 << i)
        return CubeEdge(self.coords(v), self.coords(u),
                        self.diagram.marked_order[i], *self._classify(v, u))

    def _classify(self, v: int, u: int) -> Tuple[str, int]:
        """Kind and sigma_elem of the edge between masks v and u; raise
        SignInconsistency when they break the edge rules."""
        pv, pu = self.vertices[v].p, self.vertices[u].p
        s_elem = self.vertices[v].writhe - self.vertices[u].writhe
        if pu == pv - 1:
            kind = MERGE
        elif pu == pv + 1:
            kind = SPLIT
        elif pu == pv:
            kind = NONORIENTABLE_BAND
        else:
            raise SignInconsistency(
                f"edge {self.coords(v)}->{self.coords(u)} changes circle "
                f"count by {pu - pv}")
        if kind != NONORIENTABLE_BAND and s_elem != 0:
            raise SignInconsistency(
                f"orientable edge {self.coords(v)}->{self.coords(u)} has "
                f"writhe defect {s_elem}")
        if kind == NONORIENTABLE_BAND and s_elem not in (-2, 2):
            raise SignInconsistency(
                f"nonorientable edge {self.coords(v)}->{self.coords(u)} has "
                f"self-intersection {s_elem}, expected +-2")
        return kind, s_elem

    def is_genuine(self) -> bool:
        return not self.diagram.retained

    def is_pseudo_diagram(self) -> bool:
        """Every vertex state verified as an unlink presentation."""
        return all(vx.unlink_status == UNLINK_VERIFIED
                   for vx in self.vertices)

    # -- self-intersection numbers --------------------------------------

    def _reduce(self, x: Sequence[int]) -> Tuple[int, int]:
        """Return (mask of r(x), sum(x - r(x))); raise OutOfDomain on
        entries congruent to 2 mod 3 (those leave a crossing retained)."""
        if len(x) != self.n_marked:
            raise OutOfDomain(
                f"vector length {len(x)} != |N| = {self.n_marked}")
        mask = 0
        excess = 0
        for i, entry in enumerate(x):
            m = entry % 3
            if m == 2:
                raise OutOfDomain(
                    f"entry {entry} is 2 mod 3: not an unlink resolution")
            mask |= m << i
            excess += entry - m
        return mask, excess

    def sigma(self, v: Sequence[int], u: Sequence[int]) -> int:
        """Self-intersection number between two (extended) vertices."""
        rv, ev = self._reduce(tuple(v))
        ru, eu = self._reduce(tuple(u))
        base = self.vertices[rv].writhe - self.vertices[ru].writhe
        extra3 = ev - eu
        if extra3 % 3:
            raise SignInconsistency(
                f"mod-3 excess {extra3} not divisible by 3")
        return base + 2 * (extra3 // 3)

    # -- gradings --------------------------------------------------------

    @cached_property
    def _writhe_o(self) -> int:
        return self.vertices[self._mask(self.o)].writhe

    def grading_offsets(self, mask: int) -> Tuple[int, int]:
        """(h, q - Q) of the summand at a vertex mask, by the module's
        grading formulas; sigma(v,o) is the writhe difference of the two
        states."""
        s = self.vertices[mask].writhe - self._writhe_o
        if s % 2:
            raise SignInconsistency(
                f"odd self-intersection number {s} at {self.coords(mask)}")
        pop = mask.bit_count()
        return (-pop + s // 2 + self.n_minus,
                -pop + 3 * (s // 2) - self.n_plus + 2 * self.n_minus)

    def h_offset(self, v: Sequence[int]) -> int:
        """h-grading of the whole summand at (extended) vertex v.  Each
        3-step in an entry adds 2 to sigma and 3 to |v|, so h drops by 2."""
        mask, excess = self._reduce(tuple(v))
        return self.grading_offsets(mask)[0] - 2 * (excess // 3)

    def q_offset(self, v: Sequence[int]) -> int:
        """q-grading minus the circle-label grading Q at (extended) vertex
        v; a 3-step leaves it unchanged."""
        return self.grading_offsets(self._reduce(tuple(v))[0])[1]

    def max_self_intersection(self, pair_budget: int = 2_000_000) -> int:
        """max sigma(v,u) over comparable cube pairs v >= u.

        When every vertex has the same writhe, every edge has
        sigma_elem = 0, the telescoped sigma vanishes on all comparable
        pairs and the answer is 0 without enumeration (the
        genuine-diagram case).  Otherwise pairs are enumerated, guarded
        by a budget since the count grows as 3^|N|.
        """
        writhes = [vx.writhe for vx in self.vertices]
        if len(set(writhes)) == 1:
            return 0
        if 3 ** self.n_marked > pair_budget:
            raise SignInconsistency(
                "pair enumeration budget exceeded for max_self_intersection")
        return max(wv - wu for v, wv in enumerate(writhes)
                   for u, wu in enumerate(writhes) if u & ~v == 0)

    def small_self_intersection(self) -> bool:
        """Whether max sigma(v,u) over comparable pairs is at most 6."""
        return self.max_self_intersection() <= 6

    # -- serialization ----------------------------------------------------

    def dump(self) -> dict:
        verts = []
        for v in product((0, 1), repeat=self.n_marked):
            vx = self.vertex(v)
            verts.append({
                "v": list(v),
                "circles": vx.p,
                "h_offset": self.h_offset(v),
                "q_offset": self.q_offset(v),
                "unlink_status": vx.unlink_status,
                "writhe": vx.writhe,
            })
        edges = [{
            "v": list(e.source), "u": list(e.target),
            "kind": e.kind, "sigma": e.sigma_elem,
        } for e in self.edges]
        return {"n_plus": self.n_plus, "n_minus": self.n_minus,
                "o": list(self.o), "vertices": verts, "edges": edges}


def build_cube(diagram: PlanarDiagram,
               trust_pseudo: bool = False) -> GradedCube:
    """Resolve all 2^|N| vertices and check all edges.

    A vertex whose unlink validation returns Unverified raises
    NotAPseudoDiagram unless trust_pseudo is set.
    """
    n = len(diagram.marked_order)
    vertices: List[CubeVertex] = []
    for mask in range(1 << n):
        state = diagram.resolve([(mask >> i) & 1 for i in range(n)])
        status = state.unlink_status()
        if status == UNLINK_VERIFIED or trust_pseudo:
            # A verified state always has a consistent writhe; on trusted
            # unverified states the computation may legitimately raise
            # OrientationDependentWrithe.
            writhe = state.writhe_unlink()
        else:
            writhe = 0  # never observed: the strict gate below raises
        vertices.append(CubeVertex(
            state.n_circles, writhe, status,
            tuple(map(state.circle_of_arc, diagram.arcs)),
            state.basepoint_circle))

    cube = GradedCube(diagram, vertices, diagram.n_plus, diagram.n_minus,
                      diagram.oriented_assignment(), trust_pseudo=trust_pseudo)
    if not trust_pseudo:
        bad = sorted(cube.coords(m) for m, vx in enumerate(vertices)
                     if vx.unlink_status != UNLINK_VERIFIED)
        if bad:
            raise NotAPseudoDiagram(
                f"{len(bad)} vertex states not verified as unlinks, "
                f"first: {bad[0]}; pass trust_pseudo to proceed")
    for v in range(1 << n):
        for i in range(n):
            if (v >> i) & 1:
                cube._classify(v, v & ~(1 << i))
    return cube
