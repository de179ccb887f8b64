"""Exact integer linear algebra and bigraded chain complexes.

Everything here runs over arbitrary-precision integers; there is no
floating point anywhere.  The homology pipeline has two independent
layers:

* ``smith_normal_form`` is a self-contained textbook SNF with
  smallest-pivot selection and a Markowitz-style sparsity tiebreak.
* ``BigradedComplex.homology`` first verifies d^2 = 0, the one place
  the homology path does so, accumulating d^2 one source row at a
  time.  It then shrinks the complex by cancelling unit (+-1)
  differential entries - an exact homotopy equivalence over the
  integers - in ordered sweeps (h descending, then id; each unit row
  cancels against its unit target with the fewest sources), and only
  then runs SNF on the small remainder.  The unreduced path
  (``reduce=False``) exists so tests can cross-check the two routes
  against each other.  A complex whose differential is not of bidegree
  (1, 0) is one differential group under the key None; callers that
  need purity check for that key.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
    """Diagonal form data: rank and divisor chain.

    divisors is the full chain d_1 | d_2 | ... | d_rank (all positive).
    """

    rank: int
    divisors: Tuple[int, ...]

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


def smith_normal_form(matrix: SparseIntMatrix) -> SNFResult:
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

    divisors: List[int] = []
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
        divisors.append(abs(rows[pi][pj]))
        del rows[pi]
        col_index[pj].discard(pi)

    return SNFResult(rank=len(divisors), divisors=tuple(divisors))


def rank_over_q(matrix: SparseIntMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination.

    Rows are integer dicts, and a column index maps each column to the
    rows holding it.  Columns are eliminated in ascending order; the
    pivot row of a column is its shortest holder (smallest |entry| next),
    found from the index alone.  Only the rows holding the pivot column
    change: each becomes ``r * pv - rv * prow`` (with ``gcd(pv, rv)``
    divided out) and is then divided by the gcd of its entries, so
    entries stay small with no division by earlier pivots.
    """
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, Set[int]] = {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)
    rank = 0
    for j in sorted(cols):
        holders = cols[j]
        if not holders:
            continue
        rank += 1
        pi = min(holders,
                 key=lambda i: (len(rows[i]), abs(rows[i][j]), i))
        prow = rows.pop(pi)
        for k in prow:
            cols[k].discard(pi)
        pv = prow.pop(j)
        for i in holders:
            r = rows[i]
            rv = r.pop(j)
            g = gcd(pv, rv)
            a, b = pv // g, rv // g
            if a != 1:
                for k in r:
                    r[k] *= a
            for k, v in prow.items():
                w = r.get(k, 0) - b * v
                if w:
                    if k not in r:
                        cols[k].add(i)
                    r[k] = w
                elif k in r:
                    del r[k]
                    cols[k].discard(i)
            g = gcd(*r.values())
            if g > 1:
                for k in r:
                    r[k] //= g
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

    gradings: sequence of (h, q) int pairs, indexed by generator.
    rows: the differential as a row map {src: {tgt: coeff}} of nonzero
        coefficients, d(src) = sum of coeff * tgt; it becomes ``out``
        itself, without a copy.
    """

    # Set by the owner of a complex that no caller holds (a streamed
    # q-slice): homology() then cancels in ``out`` itself, not a copy.
    _disposable = False

    def __init__(self,
                 gradings: Sequence[Tuple[int, int]],
                 rows: Optional[Dict[int, Dict[int, int]]] = None):
        self.gradings: Tuple[Tuple[int, int], ...] = tuple(gradings)
        rows = {} if rows is None else rows
        ids = set(rows).union(*rows.values())
        if ids and not (min(ids) >= 0 and max(ids) < len(self.gradings)):
            raise ValueError("differential entry outside generator range")
        if not all(map(all, map(dict.values, rows.values()))):
            raise ValueError("zero coefficient in a row map")
        self.out: Dict[int, Dict[int, int]] = rows

    # -- bookkeeping --------------------------------------------------

    @property
    def n_generators(self) -> int:
        return len(self.gradings)

    def graded_ranks(self) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for g in self.gradings:
            out[g] = out.get(g, 0) + 1
        return out

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
        """Raise ``NotADifferential`` unless d(d(x)) = 0 for every x.

        d^2 is accumulated one source row at a time into a small
        {target: sum} dict, so memory stays at one row's fan-out; the
        error names the first nonzero entry in row order and the total
        count of nonzero entries.
        """
        out = self.out
        first = None
        bad = 0
        for src, row in out.items():
            acc: Dict[int, int] = {}
            get = acc.get
            for mid, c1 in row.items():
                for tgt, c2 in out.get(mid, {}).items():
                    acc[tgt] = get(tgt, 0) + c1 * c2
            for tgt, v in acc.items():
                if v:
                    bad += 1
                    if first is None:
                        first = (src, tgt, v)
        if first is not None:
            src, tgt, v = first
            raise NotADifferential(
                f"d^2 != 0: entry {v} from generator {src} "
                f"(grading {self.gradings[src]}) to {tgt} "
                f"(grading {self.gradings[tgt]}); {bad} bad entries total")

    # -- reduction ----------------------------------------------------

    def _cancel_units(self) -> Tuple[Dict[int, Dict[int, int]], List[int]]:
        """Cancel +-1 entries; return (reduced out-map, surviving ids).

        This is the exact Gaussian-elimination homotopy equivalence: each
        step removes a pair (x, y) with d(x) = u*y + rest, |u| = 1, and
        sets d'(w) = d(w) - c_w*u*rest for every other source w with
        d(w) = c_w*y + ...

        Pivots come from an ordered sweep: each pass visits the
        generators with a nonempty row by h descending, then id, and
        cancels each one still holding a unit against its unit target
        with the fewest sources.  Passes repeat until one cancels
        nothing.
        """
        out = self.out if self._disposable else {
            s: dict(r) for s, r in self.out.items()}
        inn: Dict[int, Set[int]] = {}
        for s, row in out.items():
            for t in row:
                inn.setdefault(t, set()).add(s)
        alive = set(range(self.n_generators))
        gradings = self.gradings

        def drop(g: int) -> None:
            # Remove generator g with its row and its column.
            for t in out.pop(g, ()):
                inn[t].discard(g)
            for s in inn.pop(g, ()):
                row = out[s]
                del row[g]
                if not row:
                    del out[s]
            alive.discard(g)

        cancelled = True
        while cancelled:
            cancelled = False
            for x in sorted(out, key=lambda g: (-gradings[g][0], g)):
                row = out.get(x)
                if not row:
                    continue
                y = min((t for t, c in row.items() if c == 1 or c == -1),
                        key=lambda t: len(inn[t]), default=None)
                if y is None:
                    continue
                u = row[y]
                rest = [(t, c) for t, c in row.items() if t != x and t != y]
                sources = [(w, out[w][y]) for w in inn[y]
                           if w != x and w != y]
                drop(x)
                drop(y)
                cancelled = True
                # d'(w) = d(w) - (c_w / u) * rest, and u^{-1} == u
                for w, cw in sources:
                    factor = cw * u
                    row = out.setdefault(w, {})
                    for t, ct in rest:
                        nv = row.get(t, 0) - factor * ct
                        if nv:
                            if t not in row:
                                inn[t].add(w)
                            row[t] = nv
                        elif t in row:
                            del row[t]
                            inn[t].discard(w)
                    if not row:
                        del out[w]
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
            out, alive = self.out, range(self.n_generators)

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
