"""Planar diagrams, resolutions, and unlink bookkeeping.

PD convention
-------------
A crossing is written X(a, b, c, d): the four incident arc labels listed
counterclockwise, starting at the incoming under-strand.  The under-strand
therefore occupies slots 0 and 2 (entering at a, leaving at c) and the
over-strand occupies slots 1 and 3.  With components oriented, the sign of
a crossing is +1 exactly when the over-strand runs from slot 3 to slot 1.

Smoothings: the 0-resolution joins (a, b) and (c, d); the 1-resolution
joins (a, d) and (b, c).  Under the sign rule above the 0-resolution of a
positive crossing is its oriented resolution, so the preferred resolution
is o(c) = 0 at positive crossings and o(c) = 1 at negative ones.

A diagram may mark only a subset of its crossings for resolution; the
rest are retained as honest crossings inside every resolved state.  When
every resolved state presents an unlink, the marked diagram is a
pseudo-diagram and the grading-defect machinery in ``cube`` applies.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .errors import (InconsistentArcs, MalformedPD, OrientationDependentWrithe,
                     UnknownCrossingId)

__all__ = [
    "Crossing",
    "PlanarDiagram",
    "ResolvedState",
    "parse_pd",
    "diagram_from_json",
    "UNLINK_VERIFIED",
    "UNLINK_UNVERIFIED",
]

UNLINK_VERIFIED = "verified"
UNLINK_UNVERIFIED = "unverified"

# Planar location of each tuple slot around a crossing, used for signs.
_SLOT_VEC = ((0, -1), (1, 0), (0, 1), (-1, 0))


class Crossing(Tuple[int, int, int, int]):
    """Arc labels (a, b, c, d) counterclockwise from the incoming under-arc."""

    def __new__(cls, a: int, b: int, c: int, d: int):
        return super().__new__(cls, (int(a), int(b), int(c), int(d)))

    @property
    def under(self) -> Tuple[int, int]:
        return (self[0], self[2])

    @property
    def over(self) -> Tuple[int, int]:
        return (self[1], self[3])

    def __repr__(self) -> str:
        return "X({},{},{},{})".format(*self)


def _strand_exit(slot: int) -> int:
    return (slot + 2) % 4


def _cross_z(u: Tuple[int, int], v: Tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _crossing_sign(heads: Mapping[int, Tuple[int, int]], x: Crossing,
                   ci: int) -> int:
    """Sign of crossing ``ci`` with arcs ``x`` when each arc runs into
    the (crossing, slot) endpoint ``heads[arc]``."""
    under_in = 0 if heads[x[0]] == (ci, 0) else 2
    over_in = 1 if heads[x[1]] == (ci, 1) else 3
    u = _SLOT_VEC[_strand_exit(under_in)]
    ui = _SLOT_VEC[under_in]
    o = _SLOT_VEC[_strand_exit(over_in)]
    oi = _SLOT_VEC[over_in]
    under_dir = (u[0] - ui[0], u[1] - ui[1])
    over_dir = (o[0] - oi[0], o[1] - oi[1])
    return 1 if _cross_z(over_dir, under_dir) > 0 else -1


def _smoothing_exit(smooth: Mapping[int, int]):
    """The slot a path leaves a crossing by, given the slot it entered:
    straight through a retained crossing, along the 0- or 1-smoothing of
    a crossing ``smooth`` resolves."""
    def exit_rule(ci: int, slot: int) -> int:
        v = smooth.get(ci)
        if v is None:
            return _strand_exit(slot)
        if v == 0:
            return slot ^ 1
        return (3, 2, 1, 0)[slot]
    return exit_rule


@dataclass(frozen=True)
class PlanarDiagram:
    """An immutable PD code with a marked crossing subset.

    crossings: the PD tuples, in input order (this order also fixes the
        edge-sign convention downstream).
    marked: indices of crossings to be resolved (the set N); all others
        are retained inside every resolved state.
    free_circles: crossing-free unknot components drawn beside the code.
    basepoint: arc label carrying the reduction basepoint, or None for
        the default (smallest arc, else the first free circle).
    """

    crossings: Tuple[Crossing, ...]
    marked: FrozenSet[int]
    free_circles: int = 0
    basepoint: Optional[int] = None

    def __post_init__(self):
        for c in self.marked:
            if not (0 <= c < len(self.crossings)):
                raise UnknownCrossingId(f"marked crossing {c} out of range")
        if self.free_circles < 0:
            raise MalformedPD("negative free circle count")
        counts: Dict[int, int] = {}
        for x in self.crossings:
            for arc in x:
                counts[arc] = counts.get(arc, 0) + 1
        bad = {a: k for a, k in counts.items() if k != 2}
        if bad:
            raise InconsistentArcs(
                f"arc labels must appear exactly twice, got {bad}")
        if self.basepoint is not None and self.basepoint not in counts:
            raise MalformedPD(f"basepoint arc {self.basepoint} not in diagram")
        if not self.crossings and not self.free_circles:
            raise MalformedPD("empty diagram: no crossings and no circles")
        self._check_planar()

    # -- construction helpers ----------------------------------------

    @classmethod
    def build(cls, crossings: Sequence[Sequence[int]],
              marked: Optional[Sequence[int]] = None,
              free_circles: int = 0,
              basepoint: Optional[int] = None) -> "PlanarDiagram":
        xs = tuple(Crossing(*c) for c in crossings)
        n = frozenset(range(len(xs))) if marked is None else frozenset(marked)
        return cls(xs, n, free_circles, basepoint)

    def with_marked(self, marked: Sequence[int]) -> "PlanarDiagram":
        return PlanarDiagram(self.crossings, frozenset(marked),
                             self.free_circles, self.basepoint)

    def with_basepoint(self, arc: int) -> "PlanarDiagram":
        return PlanarDiagram(self.crossings, self.marked,
                             self.free_circles, arc)

    def _check_planar(self) -> None:
        """Raise MalformedPD unless the code draws on the sphere.

        Faces are traced by the counterclockwise slot order: arrive at a
        slot along its arc, turn to the next slot, leave along that arc.
        A connected piece with V crossings has 2V arcs, so Euler's
        formula V - E + F = 2 asks for V + 2 faces per piece.
        """
        across: Dict[Tuple[int, int], Tuple[int, int]] = {}
        root = list(range(self.n_crossings))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for end0, end1 in self._arc_slots.values():
            across[end0], across[end1] = end1, end0
            root[find(end0[0])] = find(end1[0])
        faces = 0
        seen: set = set()
        for start in across:
            if start in seen:
                continue
            faces += 1
            slot = start
            while slot not in seen:
                seen.add(slot)
                ci, k = across[slot]
                slot = (ci, (k + 1) % 4)
        pieces = sum(find(i) == i for i in range(self.n_crossings))
        if faces != self.n_crossings + 2 * pieces:
            raise MalformedPD(
                f"PD code is not planar: its slot order traces {faces} "
                f"face(s), Euler's formula needs "
                f"{self.n_crossings + 2 * pieces}")

    # -- static structure --------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @cached_property
    def retained(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.n_crossings) if i not in self.marked)

    @cached_property
    def marked_order(self) -> Tuple[int, ...]:
        """Marked crossings in input order; cube coordinates use this order."""
        return tuple(i for i in range(self.n_crossings) if i in self.marked)

    @cached_property
    def arcs(self) -> Tuple[int, ...]:
        return tuple(sorted({a for x in self.crossings for a in x}))

    @cached_property
    def _arc_slots(self) -> Dict[int, Tuple[Tuple[int, int], Tuple[int, int]]]:
        """arc -> its two (crossing, slot) endpoints in listing order."""
        occ: Dict[int, List[Tuple[int, int]]] = {}
        for ci, x in enumerate(self.crossings):
            for slot, arc in enumerate(x):
                occ.setdefault(arc, []).append((ci, slot))
        return {a: (p[0], p[1]) for a, p in occ.items()}

    @cached_property
    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Oriented components as arc cycles (crossings all retained).

        Each component starts at its smallest arc and follows the strand
        through every crossing; this choice fixes the orientation used
        for signs (signs of self-crossings and the sign multiset of a
        knot do not depend on it).
        """
        return self._trace(lambda ci, slot: _strand_exit(slot))

    def _trace(self, exit_rule) -> Tuple[Tuple[int, ...], ...]:
        slots = self._arc_slots
        seen: set = set()
        comps: List[Tuple[int, ...]] = []
        for start in self.arcs:
            if start in seen:
                continue
            cycle: List[int] = []
            arc = start
            # Leave the start arc toward its second listed endpoint.
            end = slots[arc][1]
            while True:
                cycle.append(arc)
                seen.add(arc)
                ci, slot = end
                out_slot = exit_rule(ci, slot)
                arc = self.crossings[ci][out_slot]
                e0, e1 = slots[arc]
                end = e1 if e0 == (ci, out_slot) else e0
                if arc == start:
                    break
            comps.append(tuple(cycle))
        return tuple(comps)

    @cached_property
    def n_components(self) -> int:
        return len(self.components) + self.free_circles

    @cached_property
    def arc_heads(self) -> Dict[int, Tuple[int, int]]:
        """arc -> the (crossing, slot) endpoint it runs into."""
        slots = self._arc_slots
        heads: Dict[int, Tuple[int, int]] = {}
        for comp in self.components:
            arc = comp[0]
            end = slots[arc][1]
            for _ in comp:
                heads[arc] = end
                ci, slot = end
                out_slot = _strand_exit(slot)
                arc = self.crossings[ci][out_slot]
                e0, e1 = slots[arc]
                end = e1 if e0 == (ci, out_slot) else e0
        return heads

    def sign(self, crossing_id: int) -> int:
        """Crossing sign under the component orientations."""
        if not (0 <= crossing_id < self.n_crossings):
            raise UnknownCrossingId(f"no crossing {crossing_id}")
        return _crossing_sign(self.arc_heads, self.crossings[crossing_id],
                              crossing_id)

    @cached_property
    def signs(self) -> Tuple[int, ...]:
        return tuple(self.sign(i) for i in range(self.n_crossings))

    @property
    def n_plus(self) -> int:
        """Positive crossings among the marked set."""
        return sum(1 for i in self.marked_order if self.signs[i] == 1)

    @property
    def n_minus(self) -> int:
        return sum(1 for i in self.marked_order if self.signs[i] == -1)

    def writhe(self) -> int:
        return sum(self.signs)

    def oriented_assignment(self) -> Tuple[int, ...]:
        """The preferred resolution: 0 at positive, 1 at negative crossings."""
        return tuple(0 if self.signs[i] == 1 else 1 for i in self.marked_order)

    # -- resolving ----------------------------------------------------

    def resolve(self, assignment) -> "ResolvedState":
        """Resolve the marked crossings; assignment is a 0/1 sequence
        aligned with marked_order, or a mapping crossing id -> 0/1."""
        order = self.marked_order
        if isinstance(assignment, Mapping):
            choices = tuple(int(assignment[i]) for i in order)
        else:
            choices = tuple(int(b) for b in assignment)
        if len(choices) != len(order) or any(b not in (0, 1) for b in choices):
            raise MalformedPD(
                f"assignment needs one bit per marked crossing {order}")
        return ResolvedState(self, choices)

    def mirror(self) -> "PlanarDiagram":
        """Swap over and under strands at every crossing."""
        heads = self.arc_heads
        new = []
        for ci, x in enumerate(self.crossings):
            over_in = 1 if heads[x[1]] == (ci, 1) else 3
            # The old over-strand becomes the under-strand; rotate the
            # tuple so it starts at the strand's incoming arc.
            new.append(Crossing(*(x[(over_in + k) % 4] for k in range(4))))
        return PlanarDiagram(tuple(new), self.marked,
                             self.free_circles, self.basepoint)

    # -- serialization ------------------------------------------------

    def to_pd_text(self) -> str:
        return "PD[" + ",".join(repr(x) for x in self.crossings) + "]"

    def to_json_dict(self) -> dict:
        out: dict = {"crossings": [list(x) for x in self.crossings],
                     "n": sorted(self.marked)}
        if self.free_circles:
            out["circles"] = self.free_circles
        if self.basepoint is not None:
            out["basepoint"] = self.basepoint
        return out

    def __repr__(self) -> str:
        tag = ""
        if set(self.marked) != set(range(self.n_crossings)):
            tag = f", n={sorted(self.marked)}"
        if self.free_circles:
            tag += f", circles={self.free_circles}"
        return self.to_pd_text()[:-1].replace("PD[", "PD[", 1) + "]" + tag


class ResolvedState:
    """One full resolution of the marked crossings of a diagram."""

    __slots__ = ("diagram", "choices", "circles", "retained",
                 "_arc_circle", "_heads")

    def __init__(self, diagram: PlanarDiagram, choices: Tuple[int, ...]):
        self.diagram = diagram
        self.choices = choices
        self.retained = diagram.retained
        exit_rule = _smoothing_exit(dict(zip(diagram.marked_order, choices)))
        slots = diagram._arc_slots
        seen: set = set()
        circles: List[Tuple[int, ...]] = []
        heads: Dict[int, Tuple[int, int]] = {}
        for start in diagram.arcs:
            if start in seen:
                continue
            cycle: List[int] = []
            arc = start
            end = slots[arc][1]
            while True:
                cycle.append(arc)
                seen.add(arc)
                heads[arc] = end
                ci, slot = end
                out_slot = exit_rule(ci, slot)
                arc = diagram.crossings[ci][out_slot]
                e0, e1 = slots[arc]
                end = e1 if e0 == (ci, out_slot) else e0
                if arc == start:
                    break
            circles.append(tuple(cycle))
        circles.sort(key=lambda cyc: min(cyc))
        self.circles: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(c) for c in circles)
        self._heads = heads
        self._arc_circle = {a: i for i, c in enumerate(self.circles) for a in c}

    @property
    def n_circles(self) -> int:
        """Circle count including crossing-free circles of the diagram."""
        return len(self.circles) + self.diagram.free_circles

    def circle_of_arc(self, arc: int) -> int:
        return self._arc_circle[arc]

    @property
    def basepoint_circle(self) -> int:
        bp = self.diagram.basepoint
        if bp is not None:
            return self._arc_circle[bp]
        return 0  # the smallest arc's circle, else the first free circle

    # -- retained-crossing geometry ------------------------------------

    def retained_sign(self, crossing_id: int) -> int:
        """Sign of a retained crossing under the state's circle orientations."""
        return _crossing_sign(self._heads, self.diagram.crossings[crossing_id],
                              crossing_id)

    def writhe_unlink(self) -> int:
        """Writhe of the retained-crossing diagram of this state.

        Signs are computed under the state's arbitrary circle
        orientations.  For an unlink presentation the inter-circle sign
        sums must cancel pairwise (2 lk = 0), which makes the total
        orientation independent; a nonzero pair sum raises.
        """
        pair_sums: Dict[FrozenSet[int], int] = {}
        total = 0
        for ci in self.retained:
            x = self.diagram.crossings[ci]
            s = self.retained_sign(ci)
            circles = frozenset((self._arc_circle[x[0]], self._arc_circle[x[1]]))
            pair_sums[circles] = pair_sums.get(circles, 0) + s
            total += s
        for pair, sm in pair_sums.items():
            if len(pair) == 2 and sm != 0:
                raise OrientationDependentWrithe(
                    f"inter-circle crossings {sorted(pair)} sum to {sm}; "
                    "state does not present an unlink")
        return total

    def unlink_status(self) -> str:
        """Greedy kink and bigon removal on the retained diagram.

        Returns UNLINK_VERIFIED when all retained crossings simplify
        away (a crossingless diagram is an unlink), UNLINK_UNVERIFIED
        otherwise.  One-sided: UNVERIFIED does not mean knotted.
        """
        if not self.retained:
            return UNLINK_VERIFIED
        # Build the retained-crossing port graph: strands between
        # retained crossings become single edges.
        slots = self.diagram._arc_slots
        exit_rule = _smoothing_exit(
            dict(zip(self.diagram.marked_order, self.choices)))
        retained_set = set(self.retained)
        port_edge: Dict[Tuple[int, int], int] = {}
        edge_ends: Dict[int, List[Optional[Tuple[int, int]]]] = {}
        next_edge = 0
        for ci in self.retained:
            for slot in range(4):
                if (ci, slot) in port_edge:
                    continue
                # Walk away from this port until the next retained port.
                arc = self.diagram.crossings[ci][slot]
                e0, e1 = slots[arc]
                end = e1 if e0 == (ci, slot) else e0
                while end[0] not in retained_set:
                    out_slot = exit_rule(*end)
                    arc = self.diagram.crossings[end[0]][out_slot]
                    a0, a1 = slots[arc]
                    end = a1 if a0 == (end[0], out_slot) else a0
                eid = next_edge
                next_edge += 1
                port_edge[(ci, slot)] = eid
                port_edge[end] = eid
                edge_ends[eid] = [(ci, slot), end]

        crossings_left = set(self.retained)

        def splice(pa: Tuple[int, int], pb: Tuple[int, int]) -> None:
            ea, eb = port_edge.pop(pa), port_edge.pop(pb)
            if ea == eb:
                edge_ends.pop(ea, None)  # closed a free circle
                return
            ends_a = [p for p in edge_ends[ea] if p not in (pa, pb)]
            ends_b = [p for p in edge_ends[eb] if p not in (pa, pb)]
            merged = ends_a + ends_b
            edge_ends.pop(eb)
            edge_ends[ea] = merged
            for p in merged:
                port_edge[p] = ea

        def remove_crossing(ci: int, pairing: Sequence[Tuple[int, int]]) -> None:
            crossings_left.discard(ci)
            for sa, sb in pairing:
                splice((ci, sa), (ci, sb))

        progress = True
        while progress and crossings_left:
            progress = False
            # Kinks: an edge joining two adjacent slots of one crossing.
            for ci in sorted(crossings_left):
                for slot in range(4):
                    nxt = (slot + 1) % 4
                    ea = port_edge.get((ci, slot))
                    if ea is None:
                        continue
                    if port_edge.get((ci, nxt)) == ea and \
                            set(edge_ends[ea]) == {(ci, slot), (ci, nxt)}:
                        # Remove the loop edge, then pass the strand through.
                        port_edge.pop((ci, slot))
                        port_edge.pop((ci, nxt))
                        edge_ends.pop(ea)
                        crossings_left.discard(ci)
                        splice((ci, (slot + 2) % 4), (ci, (nxt + 2) % 4))
                        progress = True
                        break
                if progress:
                    break
            if progress:
                continue
            # Bigons: two edges joining the same crossing pair at adjacent
            # slots, one strand passing over at both ends.
            done = False
            for ci in sorted(crossings_left):
                for slot in range(4):
                    nxt = (slot + 1) % 4
                    ea = port_edge.get((ci, slot))
                    eb = port_edge.get((ci, nxt))
                    if ea is None or eb is None or ea == eb:
                        continue
                    other_a = [p for p in edge_ends[ea] if p != (ci, slot)]
                    other_b = [p for p in edge_ends[eb] if p != (ci, nxt)]
                    if len(other_a) != 1 or len(other_b) != 1:
                        continue
                    (cj, sa), (cj2, sb) = other_a[0], other_b[0]
                    if cj != cj2 or cj == ci or cj not in crossings_left:
                        continue
                    if (sa - sb) % 4 not in (1, 3):
                        continue
                    #  Over/under pattern: each strand keeps its level.
                    if slot % 2 != sa % 2 or nxt % 2 != sb % 2:
                        continue
                    if slot % 2 == nxt % 2:
                        continue
                    port_edge.pop((ci, slot)), port_edge.pop((cj, sa))
                    port_edge.pop((ci, nxt)), port_edge.pop((cj, sb))
                    edge_ends.pop(ea), edge_ends.pop(eb)
                    crossings_left.discard(ci)
                    crossings_left.discard(cj)
                    # Slot opposite the bigon slot continues into the bigon
                    # span and out the far side: (ci, slot+2) joins (cj, sa+2).
                    splice((ci, (slot + 2) % 4), (cj, (sa + 2) % 4))
                    splice((ci, (nxt + 2) % 4), (cj, (sb + 2) % 4))
                    done = True
                    break
                if done:
                    break
            progress = progress or done
        return UNLINK_VERIFIED if not crossings_left else UNLINK_UNVERIFIED

    def __repr__(self) -> str:
        bits = "".join(str(b) for b in self.choices)
        return f"ResolvedState(v={bits or '-'}, circles={self.n_circles})"


_PD_RE = re.compile(r"^\s*PD\[(.*)\]\s*$", re.DOTALL)
_X_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str, marked: Optional[Sequence[int]] = None,
             free_circles: int = 0,
             basepoint: Optional[int] = None) -> PlanarDiagram:
    """Parse PD text: ``PD[X(a,b,c,d), ...]`` (whitespace ignored).

    Grammar:
        pd       = "PD[" [crossings] "]"
        crossings = crossing { "," crossing }
        crossing = "X(" int "," int "," int "," int ")"
    """
    m = _PD_RE.match(text)
    if not m:
        raise MalformedPD("input does not match PD[...] grammar")
    body = m.group(1).strip()
    xs: List[Crossing] = []
    if body:
        for xm in _X_RE.finditer(body):
            xs.append(Crossing(*(int(g) for g in xm.groups())))
        stripped = _X_RE.sub("", body)
        if re.sub(r"[\s,]", "", stripped):
            raise MalformedPD(f"unrecognized tokens in PD body: {stripped!r}")
    return PlanarDiagram.build([tuple(x) for x in xs], marked,
                               free_circles, basepoint)


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v: object, length: Optional[int] = None) -> bool:
    return (isinstance(v, list) and all(_is_int(x) for x in v)
            and (length is None or len(v) == length))


def diagram_from_json(data) -> PlanarDiagram:
    """Build a diagram from the documented JSON schema.

    {"crossings": [[a,b,c,d], ...], "n": [ids], "basepoint": arc,
     "circles": k} -- "n" defaults to all crossings, "circles" to 0.
    Any input that is not such a diagram raises ``MalformedPD``: text
    that does not parse (nested too deep included), fields of the wrong
    type, arcs not used exactly twice and crossing ids out of range.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise MalformedPD(f"JSON diagram does not parse: {exc}") from None
    if not isinstance(data, dict) or "crossings" not in data:
        raise MalformedPD("JSON diagram needs a 'crossings' field")
    crossings = data["crossings"]
    if not isinstance(crossings, list) or \
            not all(_is_int_list(x, 4) for x in crossings):
        raise MalformedPD("'crossings' must be a list of 4-integer lists")
    marked = data.get("n")
    if marked is not None and not _is_int_list(marked):
        raise MalformedPD("'n' must be a list of integers")
    circles = data.get("circles", 0)
    if not _is_int(circles):
        raise MalformedPD("'circles' must be an integer")
    basepoint = data.get("basepoint")
    if basepoint is not None and not _is_int(basepoint):
        raise MalformedPD("'basepoint' must be an integer")
    try:
        return PlanarDiagram.build(crossings, marked, circles, basepoint)
    except (InconsistentArcs, UnknownCrossingId) as exc:
        raise MalformedPD(f"{type(exc).__name__}: {exc}") from None
