"""Khovanov homology of genuine diagrams by Bar-Natan's local scheme.

Bar-Natan, "Fast Khovanov homology computations" (arXiv:math/0606318),
in the dotted-cobordism category of "Khovanov's homology for tangles and
cobordisms" (arXiv:math/0410495) with H = T = 0.  The cube is never
built: crossings are glued on one at a time and the complex is
simplified after each, so it stays near the size of its homology.

Tangle.  Each arc is a point; the basepoint arc is cut open into two
points that stay on the boundary to the end.  The crossings are scanned
in a greedy planar order: next is the crossing sharing the most points
with the current boundary, ties to the lower index.

Objects are crossingless matchings of the boundary points with a
bigrading (h, q).  A morphism between two matchings is a Z-combination
of dot choices on the cycles of source and target together: each cycle
bounds a disk, carrying at most one dot.  It is a dict {dot mask:
coefficient}, bit i standing for the cycle with the i-th smallest least
point; the empty mask on the cycles of a matching with itself is the
identity.  A glued or composed surface is put back in that form by neck
cutting, which with H = T = 0 has a closed form: a connected component
of genus g with d dots and b >= 1 boundary circles is 2^g times the sum
of its disk sets with d + g + b - 1 of the b circles dotted (zero when
d + g >= 2), and a closed one is 2^g [d + g = 1].

Crossing complexes follow the cube's conventions: the 1-smoothing sits
at local (h, q) = (-1, -1), the 0-smoothing at (0, 0), and the saddle
between them raises h by one.  The tensor product with the tangle's
complex puts the Koszul sign (-1)^h on the saddle term.  A closed loop
is delooped at once, O u o = O{+1} + O{-1}: in by cup and dotted cup,
out by dotted cap and cap.  After each crossing, d o d = 0 is checked
in the cobordism category (``NotADifferential`` names the crossing),
and every +-identity entry between equal matchings is cancelled by the
Gaussian step ``BigradedComplex._cancel_units`` uses.

At the end every object is the cut arc, and every morphism a id + b dot.
The reduced complex takes entry a at q - 1.  The unreduced one has v+
at q + 1 and v- at q - 1, entry a on both diagonals and b from v+ to
v-, tensored with A once per free circle.  The global shift is
(n-, -n+ + 2 n-).  The result is an ordinary ``BigradedComplex``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .chain import BigradedComplex
from .diagram import PlanarDiagram
from .errors import NotADifferential

__all__ = ["scan_complex"]

Matching = Tuple[Tuple[int, int], ...]      # sorted pairs of points
Morphism = Dict[int, int]                   # dot mask -> coefficient
# One connected piece of a glued surface: masks of its disks among the
# first and second factor's cycles, of its source and target caps, its
# genus, and the bit of each boundary cycle it carries.
Piece = Tuple[int, int, int, int, int, Tuple[int, ...]]


def _koszul(h: int) -> int:
    """Sign of the saddle term on an object in homological degree h."""
    return -1 if h % 2 else 1


def _partner(m: Matching) -> Dict[int, int]:
    return {i: j for p in m for i, j in (p, p[::-1])}


# Slot pairs the 0- and 1-smoothing join: (a, b), (c, d) and (a, d), (b, c).
_SMOOTHINGS = (((0, 1), (2, 3)), ((0, 3), (1, 2)))
_SLOT_MATCHINGS = tuple(map(_partner, _SMOOTHINGS))


def _cycles(a: Dict[int, int], b: Dict[int, int]
            ) -> Tuple[Dict[int, int], List[int]]:
    """Cycles of two matchings on the same points: the cycle index of
    each point, and each cycle's least point.  Cycles are numbered by
    least point."""
    index: Dict[int, int] = {}
    least: List[int] = []
    for p in sorted(a):
        if p in index:
            continue
        k = len(least)
        least.append(p)
        while p not in index:
            index[p] = k
            q = a[p]
            index[q] = k
            p = b[q]
    return index, least


def _pieces(n: int, glued: Sequence[Tuple[int, int]], n_first: int,
            src_caps: Sequence[int], tgt_caps: Sequence[int],
            cycle_nodes: Sequence[int]) -> Tuple[Piece, ...]:
    """Connected pieces of a surface made of n disks: disks 0..n_first-1
    from the first factor, the rest from the second, each pair in
    ``glued`` joined along one interval, a cap on each source and
    target loop (at the disk given), and the boundary cycle k running
    through disk cycle_nodes[k]."""
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for i, j in glued:
        root[find(i)] = find(j)
    chi: Dict[int, int] = {}
    masks: Dict[int, List[int]] = {}
    for i in range(n):
        r = find(i)
        chi[r] = chi.get(r, 0) + 1
        m = masks.setdefault(r, [0, 0, 0, 0])
        if i < n_first:
            m[0] |= 1 << i
        else:
            m[1] |= 1 << (i - n_first)
    for i, _ in glued:
        r = find(i)
        chi[r] -= 1
    for side, caps in ((2, src_caps), (3, tgt_caps)):
        for k, node in enumerate(caps):
            r = find(node)
            chi[r] += 1
            masks[r][side] |= 1 << k
    cycles: Dict[int, List[int]] = {r: [] for r in masks}
    for k, node in enumerate(cycle_nodes):
        cycles[find(node)].append(1 << k)
    out = []
    for r, (fb, gb, sb, tb) in masks.items():
        twice_genus = 2 - chi[r] - len(cycles[r])
        assert twice_genus >= 0 and twice_genus % 2 == 0, "not a surface"
        out.append((fb, gb, sb, tb, twice_genus // 2, tuple(cycles[r])))
    return tuple(out)


def _evaluate(pieces: Tuple[Piece, ...], fmask: int, gmask: int,
              sdots: int = 0, tdots: int = 0) -> Morphism:
    """Neck-cut a glued surface: the dot masks on its two factors' disks
    and caps, to a morphism on its boundary cycles."""
    base, coeff = 0, 1
    free: List[Tuple[int, ...]] = []
    for fb, gb, sb, tb, genus, cyc in pieces:
        d = genus + (fmask & fb).bit_count() + (gmask & gb).bit_count() \
            + (sdots & sb).bit_count() + (tdots & tb).bit_count()
        if d > 1:
            return {}
        if d:
            coeff <<= genus
            base |= sum(cyc)
        elif not cyc:
            return {}       # an undotted sphere
        else:
            free.append(cyc)
    terms = {base: coeff}
    for cyc in free:
        every = sum(cyc)
        terms = {m | (every ^ bit): c for m, c in terms.items()
                 for bit in cyc}
    return terms


def _add(acc: Morphism, mor: Morphism, factor: int) -> None:
    for m, c in mor.items():
        v = acc.get(m, 0) + factor * c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


class _Step:
    """One crossing glued onto the tangle scanned so far: objects,
    surfaces and compositions on the new boundary, cached per matching
    pair or triple."""

    def __init__(self, slots: Tuple[int, int, int, int], boundary: set):
        self.slots = slots
        self.slot_of: Dict[int, int] = {}
        self.kinks: List[Tuple[int, int]] = []
        for k, p in enumerate(slots):
            if p in self.slot_of:
                self.kinks.append((self.slot_of.pop(p), k))
            else:
                self.slot_of[p] = k
        self.shared = [p for p in self.slot_of if p in boundary]
        self._objects: Dict[Tuple[Matching, int], tuple] = {}
        self._surfaces: Dict[tuple, Tuple[Piece, ...]] = {}

    def object(self, m: Matching, s: int
               ) -> Tuple[Matching, Tuple[Tuple[int, int], ...]]:
        """Matching m with the crossing's s-smoothing glued on: the new
        matching and its closed loops, each as a place it passes (0, p)
        for a point p of m or (1, k) for slot k."""
        key = (m, s)
        hit = self._objects.get(key)
        if hit is not None:
            return hit
        slots = self.slots
        edges = [(p, q, (0, p)) for p, q in m] + [
            (slots[i], slots[j], (1, i)) for i, j in _SMOOTHINGS[s]]
        at: Dict[int, List[int]] = {}
        for e, (p, q, _) in enumerate(edges):
            at.setdefault(p, []).append(e)
            at.setdefault(q, []).append(e)
        used = [False] * len(edges)

        def walk(p: int, e: int) -> int:
            while True:
                used[e] = True
                u, v, _ = edges[e]
                p = v if u == p else u
                e = next((f for f in at[p] if not used[f]), None)
                if e is None:
                    return p

        pairs = [(p, walk(p, ends[0])) for p, ends in sorted(at.items())
                 if len(ends) == 1 and not used[ends[0]]]
        loops = []
        for e, (p, _, where) in enumerate(edges):
            if not used[e]:
                loops.append(where)
                walk(p, e)
        hit = self._objects[key] = (tuple(pairs), tuple(loops))
        return hit

    def tensor(self, a: Matching, b: Matching, s: int, t: int
               ) -> Tuple[Piece, ...]:
        """Surface of a morphism a -> b (first factor) beside one of
        the crossing's smoothing s -> smoothing t (second factor),
        capped on every loop, read on the new boundary."""
        key = (a, b, s, t)
        hit = self._surfaces.get(key)
        if hit is not None:
            return hit
        fidx, fleast = _cycles(_partner(a), _partner(b))
        gidx, gleast = _cycles(_SLOT_MATCHINGS[s], _SLOT_MATCHINGS[t])
        nf = len(fleast)
        slot_of = self.slot_of

        def node(where: Tuple[int, int]) -> int:
            side, x = where
            return fidx[x] if side == 0 else nf + gidx[x]

        glued = [(fidx[p], nf + gidx[slot_of[p]]) for p in self.shared]
        glued += [(nf + gidx[i], nf + gidx[j]) for i, j in self.kinks]
        a2, src_loops = self.object(a, s)
        b2, tgt_loops = self.object(b, t)
        _, least = _cycles(_partner(a2), _partner(b2))
        cycle_nodes = [fidx[p] if p in fidx else nf + gidx[slot_of[p]]
                       for p in least]
        hit = self._surfaces[key] = _pieces(
            nf + len(gleast), glued, nf, [node(w) for w in src_loops],
            [node(w) for w in tgt_loops], cycle_nodes)
        return hit

    def compose(self, a: Matching, b: Matching, c: Matching,
                f: Morphism, g: Morphism) -> Morphism:
        """g o f for f: a -> b and g: b -> c."""
        key = (a, b, c)
        pieces = self._surfaces.get(key)
        if pieces is None:
            pb = _partner(b)
            fidx, fleast = _cycles(_partner(a), pb)
            gidx, gleast = _cycles(pb, _partner(c))
            nf = len(fleast)
            _, least = _cycles(_partner(a), _partner(c))
            pieces = self._surfaces[key] = _pieces(
                nf + len(gleast), [(fidx[p], nf + gidx[p]) for p, _ in b],
                nf, (), (), [fidx[p] for p in least])
        acc: Morphism = {}
        for fm, fc in f.items():
            for gm, gc in g.items():
                _add(acc, _evaluate(pieces, fm, gm), fc * gc)
        return acc


def _order(slots: Sequence[Tuple[int, int, int, int]]) -> List[int]:
    """Greedy planar order: the crossing sharing the most points with
    the boundary so far, ties to the lower index."""
    left = set(range(len(slots)))
    boundary: set = set()
    order = []
    while left:
        ci = max(left, key=lambda c: (
            sum(p in boundary for p in slots[c]), -c))
        left.remove(ci)
        order.append(ci)
        boundary.symmetric_difference_update(slots[ci])
    return order


def _slots(diagram: PlanarDiagram) -> List[Tuple[int, int, int, int]]:
    """The points at each crossing's slots: arcs by position in
    ``diagram.arcs``, the basepoint arc's second end a point of its own."""
    arcs = diagram.arcs
    point = {arc: k for k, arc in enumerate(arcs)}
    cut = arcs[0] if diagram.basepoint is None else diagram.basepoint
    ends = [point[cut], len(arcs)]
    return [tuple(ends.pop(0) if arc == cut else point[arc] for arc in x)
            for x in diagram.crossings]


class _Complex:
    """Objects {id: (matching, h, q)} and rows {src: {tgt: morphism}}."""

    def __init__(self):
        self.objects: Dict[int, Tuple[Matching, int, int]] = {0: ((), 0, 0)}
        self.out: Dict[int, Dict[int, Morphism]] = {}

    def glue(self, step: _Step) -> None:
        """Tensor with the crossing's two-term complex and deloop."""
        objects: Dict[int, Tuple[Matching, int, int]] = {}
        first: Dict[Tuple[int, int], int] = {}
        for o, (m, h, q) in self.objects.items():
            for s in (1, 0):
                m2, loops = step.object(m, s)
                first[(o, s)] = len(objects)
                k = len(loops)
                for e in range(1 << k):
                    objects[len(objects)] = (m2, h - s,
                                             q - s + k - 2 * e.bit_count())
        out: Dict[int, Dict[int, Morphism]] = {}

        def put(o1: int, s: int, o2: int, t: int, f: Morphism,
                sign: int) -> None:
            a, b = self.objects[o1][0], self.objects[o2][0]
            pieces = step.tensor(a, b, s, t)
            ks = len(step.object(a, s)[1])
            kt = len(step.object(b, t)[1])
            full = (1 << kt) - 1
            for e1 in range(1 << ks):
                src = first[(o1, s)] + e1
                for e2 in range(1 << kt):
                    acc: Morphism = {}
                    for fm, fc in f.items():
                        _add(acc, _evaluate(pieces, fm, 0, e1, full & ~e2),
                             sign * fc)
                    if acc:
                        out.setdefault(src, {})[first[(o2, t)] + e2] = acc

        for o1, row in self.out.items():
            for o2, f in row.items():
                for s in (1, 0):
                    put(o1, s, o2, s, f, 1)
        for o, (_, h, _) in self.objects.items():
            put(o, 1, o, 0, {0: 1}, _koszul(h))
        self.objects, self.out = objects, out

    def check_square_zero(self, step: _Step, crossing: str) -> None:
        out, objects = self.out, self.objects
        for src, row in out.items():
            acc: Dict[int, Morphism] = {}
            for mid, f in row.items():
                for tgt, g in out.get(mid, {}).items():
                    _add(acc.setdefault(tgt, {}), step.compose(
                        objects[src][0], objects[mid][0], objects[tgt][0],
                        f, g), 1)
            bad = [t for t, mor in acc.items() if mor]
            if bad:
                raise NotADifferential(
                    f"d^2 != 0 after gluing crossing {crossing}: from "
                    f"object {src} (grading {objects[src][1:]}) to "
                    f"{bad[0]} (grading {objects[bad[0]][1:]})")

    def cancel_units(self, step: _Step) -> None:
        """Gaussian elimination of every +-identity entry, in the
        ordered sweeps of ``BigradedComplex._cancel_units``."""
        out, objects = self.out, self.objects
        inn: Dict[int, set] = {}
        for s, row in out.items():
            for t in row:
                inn.setdefault(t, set()).add(s)

        def unit(x: int, y: int, f: Morphism) -> bool:
            return len(f) == 1 and f.get(0) in (1, -1) and \
                objects[x][0] == objects[y][0]

        def drop(g: int) -> None:
            for t in out.pop(g, ()):
                inn[t].discard(g)
            for s in inn.pop(g, ()):
                row = out[s]
                del row[g]
                if not row:
                    del out[s]
            del objects[g]

        cancelled = True
        while cancelled:
            cancelled = False
            for x in sorted(out, key=lambda g: (-objects[g][1], g)):
                row = out.get(x)
                if not row:
                    continue
                y = min((t for t, f in row.items() if unit(x, t, f)),
                        key=lambda t: len(inn[t]), default=None)
                if y is None:
                    continue
                u = row[y][0]
                mx = objects[x][0]
                rest = [(t, f) for t, f in row.items() if t != y]
                sources = [(w, out[w][y]) for w in inn[y] if w != x]
                drop(x)
                drop(y)
                cancelled = True
                # d'(w) = d(w) - gamma o phi^{-1} o delta, phi^{-1} = u id
                for w, delta in sources:
                    mw = objects[w][0]
                    row = out.setdefault(w, {})
                    for t, gamma in rest:
                        acc = row.get(t, {})
                        _add(acc, step.compose(mw, mx, objects[t][0],
                                               delta, gamma), -u)
                        if acc:
                            if t not in row:
                                inn[t].add(w)
                            row[t] = acc
                        elif t in row:
                            del row[t]
                            inn[t].discard(w)
                    if not row:
                        del out[w]


def scan_complex(diagram: PlanarDiagram, reduced: bool) -> BigradedComplex:
    """The Khovanov complex of a genuine diagram after the local scan:
    homotopy equivalent to the cube's, in the same gradings."""
    if diagram.retained:
        raise ValueError("the local scan needs a genuine diagram; "
                         f"crossings {list(diagram.retained)} are retained")
    slots = _slots(diagram) if diagram.crossings else []
    cx = _Complex()
    boundary: set = set()
    for ci in _order(slots):
        step = _Step(slots[ci], boundary)
        cx.glue(step)
        cx.check_square_zero(step, f"{ci} {diagram.crossings[ci]!r}")
        cx.cancel_units(step)
        boundary.symmetric_difference_update(slots[ci])
    free = diagram.free_circles
    if not slots:
        free -= 1           # the basepoint is on the first free circle
        cx.objects = {0: (((0, 1),), 0, 0)}
    dh, dq = diagram.n_minus, 2 * diagram.n_minus - diagram.n_plus
    ids = {o: k for k, o in enumerate(cx.objects)}
    gradings: List[Tuple[int, int]] = []
    rows: Dict[int, Dict[int, int]] = {}
    if reduced:
        gradings = [(h + dh, q - 1 + dq) for _, h, q in cx.objects.values()]
        for o1, row in cx.out.items():
            rows[ids[o1]] = {ids[o2]: f[0] for o2, f in row.items()
                             if f.get(0)}
    else:
        for _, h, q in cx.objects.values():
            gradings += [(h + dh, q + 1 + dq), (h + dh, q - 1 + dq)]
        for o1, row in cx.out.items():
            plus, minus = 2 * ids[o1], 2 * ids[o1] + 1
            for o2, f in row.items():
                a, b = f.get(0, 0), f.get(1, 0)
                if a:
                    rows.setdefault(plus, {})[2 * ids[o2]] = a
                    rows.setdefault(minus, {})[2 * ids[o2] + 1] = a
                if b:
                    rows.setdefault(plus, {})[2 * ids[o2] + 1] = b
    for _ in range(free):
        gradings = [(h, q + e) for h, q in gradings for e in (1, -1)]
        rows = {2 * s + k: {2 * t + k: c for t, c in row.items()}
                for s, row in rows.items() for k in (0, 1)}
    return BigradedComplex(gradings, {s: r for s, r in rows.items() if r})
