"""Classical knot invariants and rank-bookkeeping deductions.

* ``alexander``: the symmetrized Alexander polynomial of a knot diagram
  via Fox calculus on the Wirtinger presentation, computed exactly over
  Laurent polynomials with a fraction-free (Bareiss) determinant.
* ``mod4_betti``: collapse a bigraded rank table onto the canonical
  mod-4 grading class ``(j - i - 1) mod 4``.
* ``rank_lower_bound``: the coefficient-norm bound for the total rank
  of any theory whose graded Euler characteristic is the Alexander
  polynomial.
* ``differential_feasibility``: enumerate where rank-1 differentials of
  a one-shot spectral sequence can live if the abutment is to have a
  prescribed total rank, constrained by degree arithmetic and a mod-4
  pairing symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .diagram import PlanarDiagram
from .errors import InfeasibleParity, KhError, MultiComponent
from .laurent import LaurentPoly

__all__ = [
    "Mod4Table",
    "DifferentialPlacement",
    "PlacementOption",
    "FeasibilityReport",
    "alexander",
    "mod4_betti",
    "rank_lower_bound",
    "differential_feasibility",
]


# ---------------------------------------------------------------------------
# Alexander polynomial


def _wirtinger_strands(diagram: PlanarDiagram) -> Dict[int, int]:
    """Map each arc to its Wirtinger strand representative.

    A strand is a maximal run of arcs joined across overpasses; arcs are
    merged whenever they are the two over-slots of one crossing.
    """
    parent: Dict[int, int] = {a: a for a in diagram.arcs}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in diagram.crossings:
        ra, rb = find(x[1]), find(x[3])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {a: find(a) for a in diagram.arcs}


def _bareiss_det(matrix: List[List[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant over Laurent polynomials, fraction-free."""
    k = len(matrix)
    if k == 0:
        return LaurentPoly.one()
    m = [row[:] for row in matrix]
    denom = LaurentPoly.one()
    sign = 1
    for p in range(k - 1):
        if m[p][p].is_zero():
            swap = next((r for r in range(p + 1, k)
                         if not m[r][p].is_zero()), None)
            if swap is None:
                return LaurentPoly.zero()
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        pivot = m[p][p]
        for i in range(p + 1, k):
            for j in range(p + 1, k):
                m[i][j] = (pivot * m[i][j]
                           - m[i][p] * m[p][j]).divide_exact(denom)
            m[i][p] = LaurentPoly.zero()
        denom = pivot
    det = m[k - 1][k - 1]
    return -det if sign < 0 else det


def alexander(diagram: PlanarDiagram) -> LaurentPoly:
    """Symmetrized Alexander polynomial of a one-component diagram.

    Built from the Wirtinger presentation read off the PD code: one
    generator per strand, one conjugation relation per crossing.  Fox
    derivatives abelianize to rows over Z[T, T^-1]; the determinant of
    the presentation matrix with its last row and column removed is the
    Alexander polynomial up to a unit, which the normalization fixes:
    AL(T) = AL(1/T), positive leading coefficient.  The result then
    satisfies |AL(1)| = 1 (checked).

    The marked set plays no role: every crossing of the underlying
    diagram has a recorded over/under strand and contributes a relation.
    """
    if diagram.free_circles == 0 and not diagram.crossings:
        raise MultiComponent("empty diagram")
    if len(diagram.components) + diagram.free_circles != 1:
        raise MultiComponent(
            f"Alexander needs a knot; diagram has "
            f"{len(diagram.components) + diagram.free_circles} components")
    n = diagram.n_crossings
    if n == 0:
        return LaurentPoly.one()

    strand_of = _wirtinger_strands(diagram)
    strands = sorted(set(strand_of.values()))
    if len(strands) != n:
        raise KhError(
            f"Wirtinger presentation is not square: {len(strands)} strands "
            f"for {n} crossings")
    col = {s: k for k, s in enumerate(strands)}

    t = LaurentPoly.monomial(1)
    t_inv = LaurentPoly.monomial(-1)
    one = LaurentPoly.one()

    heads = diagram.arc_heads
    rows: List[List[LaurentPoly]] = []
    for ci, x in enumerate(diagram.crossings):
        under_in_slot = 0 if heads[x[0]] == (ci, 0) else 2
        s_in = strand_of[x[under_in_slot]]
        s_out = strand_of[x[(under_in_slot + 2) % 4]]
        s_over = strand_of[x[1]]
        if diagram.signs[ci] == 1:
            parts = ((s_in, t), (s_out, -one), (s_over, one - t))
        else:
            parts = ((s_in, t_inv), (s_out, -one), (s_over, one - t_inv))
        # The same strand may play several roles at one crossing (e.g. a
        # strand crossing over its own output arc); contributions add.
        row = [LaurentPoly.zero()] * n
        for s, c in parts:
            row[col[s]] = row[col[s]] + c
        rows.append(row)

    minor = [row[:-1] for row in rows[:-1]]
    det = _bareiss_det(minor)
    if det.is_zero():
        raise KhError("Alexander determinant vanished; the diagram data "
                      "does not present a knot group")
    det = det.shift(-det.min_exp)
    spread = det.max_exp
    if spread % 2:
        raise KhError(
            f"Alexander determinant has odd exponent spread {spread}; "
            "cannot symmetrize")
    poly = det.shift(-spread // 2)
    if poly.coeff(poly.max_exp) < 0:
        poly = -poly
    if poly != poly.reversed_variable():
        raise KhError("Alexander polynomial failed its palindrome check")
    if poly(1) not in (1, -1):
        raise KhError(
            f"Alexander polynomial evaluates to {poly(1)} at 1, not +-1")
    return poly


# ---------------------------------------------------------------------------
# mod-4 grading table


@dataclass(frozen=True)
class Mod4Table:
    """Rank per canonical mod-4 class c = (j - i - 1) mod 4."""

    betti: Tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.betti) != 4 or any(b < 0 for b in self.betti):
            raise ValueError(f"betti must be 4 nonnegative ints: {self.betti}")

    @property
    def total(self) -> int:
        return sum(self.betti)

    def __getitem__(self, c: int) -> int:
        return self.betti[c % 4]

    def paired_symmetry_defect(self) -> Optional[int]:
        """The class c0 with betti[c0] - betti[c0+2] = 1 while the other
        pair balances, or None when no rotation works.

        This is the shape forced on a theory whose mod-4 Euler
        characteristics against the pairing are +-1 (as |AL(1)| = 1
        forces for knots).
        """
        b = self.betti
        for c0 in range(4):
            if b[c0] - b[(c0 + 2) % 4] == 1 and \
                    b[(c0 + 1) % 4] == b[(c0 + 3) % 4]:
                return c0
        return None


def mod4_betti(table: Mapping[Tuple[int, int], int]) -> Mod4Table:
    """Bucket a bigraded rank table by the class (j - i - 1) mod 4."""
    betti = [0, 0, 0, 0]
    for (i, j), rank in table.items():
        if rank < 0:
            raise ValueError(f"negative rank at {(i, j)}")
        betti[(j - i - 1) % 4] += rank
    return Mod4Table(tuple(betti))


def rank_lower_bound(poly: LaurentPoly) -> int:
    """Sum of absolute values of the coefficients."""
    return poly.abs_coeff_sum()


# ---------------------------------------------------------------------------
# differential placement feasibility


@dataclass(frozen=True)
class DifferentialPlacement:
    """Rank-``rank`` worth of differentials from one diagonal row to
    another; rows are indexed by j - i."""

    source_row: int
    target_row: int
    rank: int
    source_bigradings: Tuple[Tuple[int, int], ...]
    target_bigradings: Tuple[Tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "source_row": self.source_row,
            "target_row": self.target_row,
            "rank": self.rank,
            "source_bigradings": [list(b) for b in self.source_bigradings],
            "target_bigradings": [list(b) for b in self.target_bigradings],
        }


@dataclass(frozen=True)
class PlacementOption:
    """One complete admissible assignment of unit differentials."""

    differentials: Tuple[DifferentialPlacement, ...]
    post_kill_betti: Mod4Table

    @property
    def total_rank(self) -> int:
        return sum(d.rank for d in self.differentials)

    def to_json_dict(self) -> dict:
        return {
            "differentials": [d.to_json_dict() for d in self.differentials],
            "post_kill_betti": list(self.post_kill_betti.betti),
        }


@dataclass(frozen=True)
class FeasibilityReport:
    """All ways rank-1 differentials can cut a rank table to a target.

    ``placements`` lists every admissible option; the zero-kill case is
    the single empty option.  Options that kill at least one generator
    must leave a table with the paired mod-4 symmetry (one class pair
    differing by exactly 1, the other balanced), the shape every
    knot theory with unit Euler characteristic defect must have.
    """

    target_rank: int
    total_rank: int
    betti: Mod4Table
    placements: Tuple[PlacementOption, ...]

    def to_json_dict(self) -> dict:
        return {
            "target_rank": self.target_rank,
            "total_rank": self.total_rank,
            "betti": list(self.betti.betti),
            "placements": [p.to_json_dict() for p in self.placements],
        }


def differential_feasibility(table: Mapping[Tuple[int, int], int],
                             target_rank: int,
                             filtration: str = "h") -> FeasibilityReport:
    """Enumerate admissible rank-1 differential placements.

    Each unit differential kills one generator in a source row and one
    in a target row (rows are j - i diagonals).  A row pair (s, t) is
    admissible when

    * t - s is congruent to -1 mod 4 (the canonical mod-4 class drops
      by one),
    * t - s >= -1,
    * some source bigrading and target bigrading realize the step
      constraint: target i at least source i + 1 for the h-filtration,
      target j at least source j + 1 for the q-filtration.

    The total number of units is (total - target) / 2; a parity mismatch
    raises InfeasibleParity.  Nonempty options must additionally leave a
    post-kill table with the paired mod-4 symmetry.
    """
    if filtration not in ("h", "q"):
        raise ValueError(f"filtration must be 'h' or 'q', got {filtration!r}")
    total = sum(table.values())
    if (total - target_rank) % 2:
        raise InfeasibleParity(
            f"cannot reach rank {target_rank} from {total}: each unit "
            "differential kills exactly two generators")
    betti = mod4_betti(table)
    units = (total - target_rank) // 2

    rows: Dict[int, List[Tuple[int, int]]] = {}
    for (i, j), rank in table.items():
        if rank:
            rows.setdefault(j - i, []).append((i, j))
    row_rank = {r: sum(table[b] for b in bs) for r, bs in rows.items()}
    step = (lambda src, tgt: tgt[0] >= src[0] + 1) if filtration == "h" \
        else (lambda src, tgt: tgt[1] >= src[1] + 1)

    pairs: List[Tuple[int, int, Tuple[Tuple[int, int], ...],
                      Tuple[Tuple[int, int], ...]]] = []
    for s in sorted(rows):
        for t in sorted(rows):
            if t - s < -1 or (t - s) % 4 != 3:
                continue
            srcs = tuple(sorted(
                b for b in rows[s] if any(step(b, b2) for b2 in rows[t])))
            tgts = tuple(sorted(
                b for b in rows[t] if any(step(b2, b) for b2 in rows[s])))
            if srcs and tgts:
                pairs.append((s, t, srcs, tgts))

    options: List[PlacementOption] = []

    def record() -> None:
        kills = [0, 0, 0, 0]
        diffs = []
        for k, (s, t, srcs, tgts) in zip(assignment_counts, pairs):
            if k:
                kills[(s - 1) % 4] += k
                kills[(t - 1) % 4] += k
                diffs.append(DifferentialPlacement(
                    source_row=s, target_row=t, rank=k,
                    source_bigradings=srcs, target_bigradings=tgts))
        post = Mod4Table(tuple(b - k for b, k in zip(betti.betti, kills)))
        if diffs and post.paired_symmetry_defect() is None:
            return
        options.append(PlacementOption(
            differentials=tuple(diffs), post_kill_betti=post))

    assignment_counts = [0] * len(pairs)
    used: Dict[int, int] = {}

    def search(idx: int, remaining: int) -> None:
        if remaining == 0:
            record()
            return
        if idx == len(pairs):
            return
        s, t, _srcs, _tgts = pairs[idx]
        cap = min(remaining,
                  row_rank[s] - used.get(s, 0),
                  row_rank[t] - used.get(t, 0))
        for k in range(0, max(cap, 0) + 1):
            assignment_counts[idx] = k
            used[s] = used.get(s, 0) + k
            used[t] = used.get(t, 0) + k
            search(idx + 1, remaining - k)
            used[s] -= k
            used[t] -= k
        assignment_counts[idx] = 0

    if units >= 0:
        search(0, units)
    return FeasibilityReport(
        target_rank=target_rank,
        total_rank=total,
        betti=betti,
        placements=tuple(options),
    )
