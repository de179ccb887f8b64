"""Exact integer linear algebra and bigraded chain complexes.

Everything here runs over arbitrary-precision integers; there is no
floating point anywhere.  The homology pipeline has two independent
layers:

* ``smith_normal_form`` is a self-contained textbook SNF with
  smallest-pivot selection and a Markowitz-style sparsity tiebreak.
* ``BigradedComplex.homology`` first verifies d^2 = 0, the one place
  the homology path does so, then shrinks the complex by cancelling
  unit (+-1) differential entries - an exact homotopy equivalence over
  the integers - and only then runs SNF on the small remainder.  The
  unreduced path (``reduce=False``) exists so tests can cross-check the
  two routes against each other.  A complex whose differential is not
  of bidegree (1, 0) is one differential group under the key None;
  callers that need purity check for that key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import NotADifferential

__all__ = [
    "SparseIntMatrix",
    "SNFResult",
    "smith_normal_form",
    "rank_over_q",
    "HomologyGroup",
    "BigradedComplex",
]


class SparseIntMatrix:
    """Sparse integer matrix stored as {(row, col): value}."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int,
                 entries: Mapping[Tuple[int, int], int] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: Dict[Tuple[int, int], int] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if v:
                    self.entries[(i, j)] = int(v)

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged dense matrix")
            for j, v in enumerate(row):
                if v:
                    ent[(i, j)] = int(v)
        return cls(nrows, ncols, ent)

    def to_dense(self) -> List[List[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.ncols, self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()})

    def nnz(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        by_row: Dict[int, Dict[int, int]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, {})[j] = v
        acc: Dict[Tuple[int, int], int] = {}
        for (i, k), v in self.entries.items():
            row = by_row.get(k)
            if not row:
                continue
            for j, w in row.items():
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        return SparseIntMatrix(self.nrows, other.ncols, acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == \
               (other.nrows, other.ncols, other.entries)

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


@dataclass(frozen=True)
class SNFResult:
    """Diagonal form data: rank, divisor chain, optional transforms.

    divisors is the full chain d_1 | d_2 | ... | d_rank (all positive).
    When transforms are requested, U @ A @ V equals the diagonal form.
    """

    rank: int
    divisors: Tuple[int, ...]
    U: Optional[SparseIntMatrix] = None
    V: Optional[SparseIntMatrix] = None

    def nontrivial_divisors(self) -> Tuple[int, ...]:
        return tuple(d for d in self.divisors if d != 1)


def _pick_pivot(rows: Dict[int, Dict[int, int]],
                col_index: Dict[int, set]) -> Tuple[int, int]:
    """Smallest |value| pivot; ties broken by Markowitz fill estimate."""
    best = None
    best_key = None
    for i, row in rows.items():
        for j, v in row.items():
            key = (abs(v), (len(row) - 1) * (len(col_index[j]) - 1), i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
                if key[0] == 1 and key[1] == 0:
                    return best
    assert best is not None
    return best


def smith_normal_form(matrix: SparseIntMatrix,
                      want_transforms: bool = False) -> SNFResult:
    """Smith normal form over Z.

    The divisor chain property (each diagonal entry divides the next) is
    enforced during elimination: a pivot is not retired until it divides
    every entry left in the working submatrix.
    """
    rows: Dict[int, Dict[int, int]] = {}
    col_index: Dict[int, set] = {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, {})[j] = v
        col_index.setdefault(j, set()).add(i)

    U_rows: Dict[int, Dict[int, int]] = {}
    V_cols: Dict[int, Dict[int, int]] = {}
    if want_transforms:
        U_rows = {i: {i: 1} for i in range(matrix.nrows)}
        V_cols = {j: {j: 1} for j in range(matrix.ncols)}

    def row_op(dst: int, src: int, q: int) -> None:
        # row[dst] -= q * row[src]
        src_row = rows.get(src, {})
        dst_row = rows.setdefault(dst, {})
        for j, v in list(src_row.items()):
            nv = dst_row.get(j, 0) - q * v
            if nv:
                dst_row[j] = nv
                col_index.setdefault(j, set()).add(dst)
            elif j in dst_row:
                del dst_row[j]
                col_index[j].discard(dst)
        if not dst_row:
            del rows[dst]
        if want_transforms:
            u_src = U_rows.get(src, {})
            u_dst = U_rows.setdefault(dst, {})
            for j, v in u_src.items():
                nv = u_dst.get(j, 0) - q * v
                if nv:
                    u_dst[j] = nv
                elif j in u_dst:
                    del u_dst[j]

    def col_op(dst: int, src: int, q: int) -> None:
        # col[dst] -= q * col[src]
        for i in list(col_index.get(src, ())):
            v = rows[i][src]
            row = rows[i]
            nv = row.get(dst, 0) - q * v
            if nv:
                row[dst] = nv
                col_index.setdefault(dst, set()).add(i)
            elif dst in row:
                del row[dst]
                col_index[dst].discard(i)
        if want_transforms:
            v_src = V_cols.get(src, {})
            v_dst = V_cols.setdefault(dst, {})
            for i, v in v_src.items():
                nv = v_dst.get(i, 0) - q * v
                if nv:
                    v_dst[i] = nv
                elif i in v_dst:
                    del v_dst[i]

    divisors: List[int] = []
    pivot_positions: List[Tuple[int, int]] = []
    while rows:
        pi, pj = _pick_pivot(rows, col_index)
        while True:
            # Clear the pivot column with Euclidean row steps.
            progressed = True
            while progressed:
                progressed = False
                for i in list(col_index.get(pj, ())):
                    if i == pi:
                        continue
                    q, r = divmod(rows[i][pj], rows[pi][pj])
                    row_op(i, pi, q)
                    if r:
                        pi = i  # strictly smaller remainder becomes pivot
                        progressed = True
                        break
                if progressed:
                    continue
                for j in list(rows.get(pi, {})):
                    if j == pj:
                        continue
                    q, r = divmod(rows[pi][j], rows[pi][pj])
                    col_op(j, pj, q)
                    if r:
                        pj = j
                        progressed = True
                        break
            # Pivot is now alone in its row and column.  Enforce the
            # divisor chain: fold in any entry it does not divide.
            p = rows[pi][pj]
            offender = None
            for i, row in rows.items():
                if i == pi:
                    continue
                for j, v in row.items():
                    if v % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(pi, offender, -1)  # row[pi] += row[offender]
        p = rows[pi][pj]
        if p < 0:
            p = -p
            # negate the pivot row
            rows[pi][pj] = p
            if want_transforms:
                U_rows[pi] = {j: -v for j, v in U_rows.get(pi, {}).items()}
        divisors.append(p)
        pivot_positions.append((pi, pj))
        del rows[pi]
        col_index[pj].discard(pi)

    U = V = None
    if want_transforms:
        # Elimination leaves divisor k at an arbitrary position; compose
        # with permutations so it sits at diagonal position (k, k).
        row_order = [pi for pi, _ in pivot_positions]
        taken = set(row_order)
        row_order += [i for i in range(matrix.nrows) if i not in taken]
        col_order = [pj for _, pj in pivot_positions]
        taken = set(col_order)
        col_order += [j for j in range(matrix.ncols) if j not in taken]
        U = SparseIntMatrix(
            matrix.nrows, matrix.nrows,
            {(k, j): v for k, old in enumerate(row_order)
             for j, v in U_rows.get(old, {}).items()})
        V = SparseIntMatrix(
            matrix.ncols, matrix.ncols,
            {(i, k): v for k, old in enumerate(col_order)
             for i, v in V_cols.get(old, {}).items()})
    return SNFResult(rank=len(divisors), divisors=tuple(divisors), U=U, V=V)


def rank_over_q(matrix: SparseIntMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    rows: List[Dict[int, int]] = []
    for (i, j), v in sorted(matrix.entries.items()):
        while len(rows) <= i:
            rows.append({})
        rows[i][j] = v
    rows = [r for r in rows if r]
    rank = 0
    prev_pivot = 1
    while rows:
        # Smallest-magnitude pivot keeps the Bareiss numerators tame.
        bi = min(range(len(rows)),
                 key=lambda k: (min(abs(v) for v in rows[k].values()),
                                len(rows[k])))
        prow = rows.pop(bi)
        pj = min(prow, key=lambda j: (abs(prow[j]), j))
        pv = prow[pj]
        rank += 1
        nxt: List[Dict[int, int]] = []
        for r in rows:
            rv = r.get(pj)
            if rv is None:
                nr = {j: (v * pv) // prev_pivot for j, v in r.items()}
            else:
                nr = {}
                for j in set(r) | set(prow):
                    if j == pj:
                        continue
                    num = r.get(j, 0) * pv - rv * prow.get(j, 0)
                    if num:
                        nr[j] = num // prev_pivot
            if nr:
                nxt.append(nr)
        rows = nxt
        prev_pivot = pv
    return rank


@dataclass(frozen=True)
class HomologyGroup:
    """One bigraded homology group: Z^free_rank + sum Z/d for d in torsion.

    torsion is stored as a divisor chain (each entry divides the next,
    all entries > 1).
    """

    free_rank: int
    torsion: Tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion is not a divisor chain")

    def prime_power_decomposition(self) -> Tuple[int, ...]:
        """Torsion rewritten as a sorted multiset of prime powers."""
        out: List[int] = []
        for d in self.torsion:
            n = d
            p = 2
            while p * p <= n:
                if n % p == 0:
                    q = 1
                    while n % p == 0:
                        n //= p
                        q *= p
                    out.append(q)
                p += 1
            if n > 1:
                out.append(n)
        return tuple(sorted(out))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __repr__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class BigradedComplex:
    """A finitely generated complex of free Z-modules with (h, q) gradings.

    generators: sequence of (h, q) pairs, indexed by position.
    entries: iterable of (src, tgt, coeff) triples defining d(src).
    """

    def __init__(self,
                 gradings: Sequence[Tuple[int, int]],
                 entries: Iterable[Tuple[int, int, int]] = ()):
        self.gradings: Tuple[Tuple[int, int], ...] = tuple(
            (int(h), int(q)) for h, q in gradings)
        n = len(self.gradings)
        self.out: Dict[int, Dict[int, int]] = {}
        for src, tgt, coeff in entries:
            if not (0 <= src < n and 0 <= tgt < n):
                raise ValueError("differential entry outside generator range")
            if coeff:
                row = self.out.setdefault(src, {})
                row[tgt] = row.get(tgt, 0) + int(coeff)
                if not row[tgt]:
                    del row[tgt]

    # -- bookkeeping --------------------------------------------------

    @property
    def n_generators(self) -> int:
        return len(self.gradings)

    def graded_ranks(self) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for g in self.gradings:
            out[g] = out.get(g, 0) + 1
        return out

    def differential_entries(self) -> Iterable[Tuple[int, int, int]]:
        for src, row in self.out.items():
            for tgt, c in row.items():
                yield src, tgt, c

    def differential_bidegrees(self) -> set:
        degs = set()
        for src, row in self.out.items():
            hs, qs = self.gradings[src]
            for tgt in row:
                ht, qt = self.gradings[tgt]
                degs.add((ht - hs, qt - qs))
        return degs

    def is_homogeneous(self, bidegree: Tuple[int, int] = (1, 0)) -> bool:
        degs = self.differential_bidegrees()
        return degs <= {bidegree}

    def check_square_zero(self) -> None:
        acc: Dict[Tuple[int, int], int] = {}
        for src, row in self.out.items():
            for mid, c1 in row.items():
                second = self.out.get(mid)
                if not second:
                    continue
                for tgt, c2 in second.items():
                    key = (src, tgt)
                    acc[key] = acc.get(key, 0) + c1 * c2
        bad = {k: v for k, v in acc.items() if v}
        if bad:
            src, tgt = next(iter(bad))
            raise NotADifferential(
                f"d^2 != 0: entry {bad[(src, tgt)]} from generator {src} "
                f"(grading {self.gradings[src]}) to {tgt} "
                f"(grading {self.gradings[tgt]}); {len(bad)} bad entries total")

    # -- reduction ----------------------------------------------------

    def _cancel_units(self) -> Tuple[Dict[int, Dict[int, int]], List[int]]:
        """Cancel +-1 entries; return (reduced out-map, surviving ids).

        This is the exact Gaussian-elimination homotopy equivalence: each
        step removes a pair (x, y) with d(x) = u*y + rest, |u| = 1, and
        corrects every other source mapping to y.

        Pivots are chosen greedily by Markowitz fill-in cost
        (#other targets of x) * (#other sources of y), with lazily
        revalidated heap entries, so the zero-cost cascades coming from
        single-entry rows and columns run first and fill-in stays low.
        """
        out: Dict[int, Dict[int, int]] = {
            s: dict(r) for s, r in self.out.items()}
        inn: Dict[int, Dict[int, int]] = {}
        for s, row in out.items():
            for t, c in row.items():
                inn.setdefault(t, {})[s] = c
        alive = set(range(self.n_generators))

        def cost(x: int, y: int) -> int:
            return (len(out.get(x, ())) - 1) * (len(inn.get(y, ())) - 1)

        heap = [(cost(s, t), s, t) for s, row in out.items()
                for t, c in row.items() if c in (1, -1)]
        heapq.heapify(heap)
        while heap:
            est, x, y = heapq.heappop(heap)
            if x not in alive or y not in alive:
                continue
            u = out.get(x, {}).get(y, 0)
            if u not in (1, -1):
                continue
            actual = cost(x, y)
            if actual > est:
                heapq.heappush(heap, (actual, x, y))
                continue
            rest = [(t, c) for t, c in out[x].items() if t != y]
            sources = [(s, c) for s, c in inn.get(y, {}).items() if s != x]
            # Remove x and y with all their incident entries.
            for t, c in out.pop(x, {}).items():
                inn_t = inn.get(t)
                if inn_t:
                    inn_t.pop(x, None)
            for s, c in inn.pop(y, {}).items():
                row = out.get(s)
                if row:
                    row.pop(y, None)
                    if not row:
                        out.pop(s, None)
            for t, c in out.pop(y, {}).items():
                inn_t = inn.get(t)
                if inn_t:
                    inn_t.pop(y, None)
            for s, c in inn.pop(x, {}).items():
                row = out.get(s)
                if row:
                    row.pop(x, None)
                    if not row:
                        out.pop(s, None)
            alive.discard(x)
            alive.discard(y)
            # d'(w) = d(w) - (c_w / u) * rest
            for w, cw in sources:
                if w not in alive:
                    continue
                factor = cw * u  # u^{-1} == u for units
                row = out.setdefault(w, {})
                for t, ct in rest:
                    if t not in alive:
                        continue
                    nv = row.get(t, 0) - factor * ct
                    if nv:
                        row[t] = nv
                        inn.setdefault(t, {})[w] = nv
                        if nv in (1, -1):
                            heapq.heappush(heap, (cost(w, t), w, t))
                    else:
                        row.pop(t, None)
                        tin = inn.get(t)
                        if tin:
                            tin.pop(w, None)
                if not row:
                    out.pop(w, None)
        return out, sorted(alive)

    # -- homology -----------------------------------------------------

    def homology(self, reduce: bool = True) -> Dict[Optional[Tuple[int, int]],
                                                    HomologyGroup]:
        """Bigraded integral homology, after verifying d^2 = 0.

        When the differential is q-homogeneous of bidegree (1, 0) the
        result is keyed by (h, q).  Otherwise the complex is treated as a
        single differential group and the result has the single key None.
        """
        self.check_square_zero()
        if reduce:
            out, alive = self._cancel_units()
        else:
            out, alive = {s: dict(r) for s, r in self.out.items()}, \
                list(range(self.n_generators))

        by_slice: Dict[Optional[Tuple[int, int]], List[int]] = {}
        if self.is_homogeneous((1, 0)):
            for g in alive:
                by_slice.setdefault(self.gradings[g], []).append(g)
        else:
            by_slice[None] = alive

        def shift(key, dh: int):
            # The single slice None is its own successor and predecessor.
            return None if key is None else (key[0] + dh, key[1])

        # Ranks and torsion per slice from SNF of the outgoing maps.
        snf_cache: Dict[Optional[Tuple[int, int]], SNFResult] = {}

        def outgoing(slice_key) -> SNFResult:
            if slice_key in snf_cache:
                return snf_cache[slice_key]
            srcs = by_slice.get(slice_key, [])
            tgts = by_slice.get(shift(slice_key, 1), [])
            tix = {g: k for k, g in enumerate(tgts)}
            ent = {}
            for a, s in enumerate(srcs):
                for t, c in out.get(s, {}).items():
                    ent[(tix[t], a)] = c
            res = smith_normal_form(
                SparseIntMatrix(len(tgts), len(srcs), ent))
            snf_cache[slice_key] = res
            return res

        result: Dict[Optional[Tuple[int, int]], HomologyGroup] = {}
        # A slice can carry torsion from the incoming map even if empty
        # itself only when it has generators, so by_slice keys suffice.
        for key in sorted(by_slice):
            n = len(by_slice[key])
            rank_out = outgoing(key).rank
            prev = shift(key, -1)
            inc = outgoing(prev) if prev in by_slice else SNFResult(0, ())
            grp = HomologyGroup(n - rank_out - inc.rank,
                                inc.nontrivial_divisors())
            if key is None or not grp.is_zero():
                result[key] = grp
        return result

    def rational_ranks(self) -> Dict[Tuple[int, int], int]:
        """Free ranks per bigrading over Q (homogeneous differentials only)."""
        return {k: g.free_rank for k, g in self.homology().items()
                if k is not None and g.free_rank}

    def __repr__(self) -> str:
        nnz = sum(len(r) for r in self.out.values())
        return f"BigradedComplex({self.n_generators} generators, nnz={nnz})"
