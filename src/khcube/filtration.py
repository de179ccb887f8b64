"""Weight filtrations, spectral sequences, and a perturbation sandbox.

A ``FilteredComplex`` equips a :class:`~khcube.chain.BigradedComplex`
with the filtration degree ``p(x) = a*h(x) + b*q(x)`` for a weight pair
``(a, b)`` with ``a, b >= 0``, not both zero.  The differential must
raise ``p`` by at least ``a`` on every nonzero entry.

``spectral_sequence`` computes the pages of the induced spectral
sequence over the rationals.  All dimensions come from exact integer
linear algebra: the approximate-cycle spaces

    Z_r^p = {x in F^p : dx in F^{p+r}},    F^p = span{x : p(x) >= p}

are kernels of integer submatrices of the differential, and every page
dimension and differential rank is a finite combination of their
dimensions.  Each page also carries a complementary grading (q for the
h-side filtrations, h for the pure-q filtration) induced by the second
coordinate filtration on the subquotients.  The terminal page is checked
against the associated graded of H(C), whose boundary part is a rank
of d with the rows below the level cut off:

    dim(im d n F^p) = rank d - rank(d on rows of degree < p),

one ``rank_over_q`` call per attained filtration degree.

``sandbox_perturb`` manufactures perturbed differentials that respect
the same order contracts as the Khovanov differential: conjugation
``g d g^{-1}`` by ``g = id + n`` where ``n`` strictly increases both
gradings, so the perturbation is invisible in leading filtration order.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .chain import BigradedComplex, SparseIntMatrix, rank_over_q
from .errors import (KhError, NotADifferential, NotFiltered,
                     OddSelfIntersection, OrderViolation)

__all__ = [
    "FilteredComplex",
    "SpectralPage",
    "PerturbedDifferential",
    "op_order",
    "spectral_sequence",
    "sandbox_perturb",
    "q_order_bound",
    "cobordism_order",
    "SANDBOX_GENERATOR_LIMIT",
]

#: Largest complex the random sandbox will perturb.  Eligibility scans
#: are quadratic in the generator count, so the sandbox targets the
#: small-diagram corpus, not torus-knot sized complexes.
SANDBOX_GENERATOR_LIMIT = 4000


# ---------------------------------------------------------------------------
# map order


def _entry_triples(f, gradings) -> Iterable[Tuple[int, int, int]]:
    """Normalize a graded map to (source, target, coeff) triples.

    Accepts a SparseIntMatrix (entry (i, j) = coefficient of generator i
    in the image of generator j), a mapping src -> {tgt: coeff}, or an
    iterable of triples.
    """
    if isinstance(f, SparseIntMatrix):
        n = len(gradings)
        if f.nrows != n or f.ncols != n:
            raise ValueError(
                f"matrix is {f.nrows}x{f.ncols} but there are {n} generators")
        return ((j, i, v) for (i, j), v in f.entries.items())
    if isinstance(f, Mapping):
        return ((s, t, c) for s, row in f.items() for t, c in row.items())
    return iter(f)


def op_order(f, gradings: Sequence[Tuple[int, int]]) -> Tuple[float, float]:
    """Componentwise filtration shift (s, t) of a graded map.

    s is the minimum of h(target) - h(source) over nonzero entries and t
    the minimum of q(target) - q(source); the two minima may come from
    different entries.  The zero map reports ``(inf, inf)``.
    """
    s = t = math.inf
    for src, tgt, coeff in _entry_triples(f, gradings):
        if not coeff:
            continue
        hs, qs = gradings[src]
        ht, qt = gradings[tgt]
        if ht - hs < s:
            s = ht - hs
        if qt - qs < t:
            t = qt - qs
    return (s, t)


# ---------------------------------------------------------------------------
# filtered complexes


class FilteredComplex:
    """A bigraded complex filtered by ``p(x) = a*h(x) + b*q(x)``.

    The filtration is decreasing: ``F^p`` is spanned by the generators
    of degree >= p, and the differential must raise the degree by at
    least ``a``.
    """

    __slots__ = ("complex", "weight", "degrees", "complementary_degrees")

    def __init__(self, complex: BigradedComplex, weight: Tuple[int, int]):
        a, b = int(weight[0]), int(weight[1])
        if a < 0 or b < 0 or (a == 0 and b == 0):
            raise NotFiltered(
                f"weight {weight!r} is not a nonnegative pair with a positive "
                "component")
        self.complex = complex
        self.weight = (a, b)
        self.degrees: Tuple[int, ...] = tuple(
            a * h + b * q for h, q in complex.gradings)
        # The second coordinate gives each page a complementary grading;
        # (p, c) determines (h, q) whenever the weight is not degenerate.
        if a == 0:
            comp = tuple(h for h, _q in complex.gradings)
        else:
            comp = tuple(q for _h, q in complex.gradings)
        self.complementary_degrees: Tuple[int, ...] = comp
        for src, row in complex.out.items():
            for tgt, coeff in row.items():
                if coeff and self.degrees[tgt] - self.degrees[src] < a:
                    raise NotFiltered(
                        f"differential entry {src} -> {tgt} shifts the "
                        f"filtration degree by "
                        f"{self.degrees[tgt] - self.degrees[src]} < {a} "
                        f"for weight {self.weight}")

    @property
    def levels(self) -> List[int]:
        return sorted(set(self.degrees))

    def __repr__(self) -> str:
        return (f"FilteredComplex(weight={self.weight}, "
                f"{self.complex.n_generators} generators)")


@dataclass(frozen=True)
class SpectralPage:
    """One page E_r: ranks per (filtration, complementary) degree.

    ``groups`` maps (p, c) to the rank over Q of the c-graded piece of
    E_r^p under the induced complementary filtration.  ``d_ranks`` maps
    p to the rank of d_r : E_r^p -> E_r^{p+r}.
    """

    r: int
    groups: Mapping[Tuple[int, int], int]
    d_ranks: Mapping[int, int]

    @property
    def total_rank(self) -> int:
        return sum(self.groups.values())

    @property
    def total_d_rank(self) -> int:
        return sum(self.d_ranks.values())

    def rank_at(self, p: int) -> int:
        return sum(v for (pp, _c), v in self.groups.items() if pp == p)

    def filtration_ranks(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for (p, _c), v in self.groups.items():
            out[p] = out.get(p, 0) + v
        return out

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "groups": [
                {"p": p, "complementary": c, "rank": v}
                for (p, c), v in sorted(self.groups.items())
            ],
            "d_ranks": [
                {"p": p, "rank": v} for p, v in sorted(self.d_ranks.items())
            ],
        }


# ---------------------------------------------------------------------------
# exact sparse linear algebra helpers (dict-of-int rows/columns)


def _normalize(vec: Dict[int, int]) -> None:
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    if g > 1:
        for k in vec:
            vec[k] //= g


def _combine(a: int, x: Mapping[int, int],
             b: int, y: Mapping[int, int]) -> Dict[int, int]:
    """a*x + b*y over shared integer keys, zero entries dropped."""
    out: Dict[int, int] = {}
    for k in set(x) | set(y):
        v = a * x.get(k, 0) + b * y.get(k, 0)
        if v:
            out[k] = v
    return out


class _Echelon:
    """Incremental sparse row echelon over Q with integer rows.

    Row keys are column positions; the pivot of a stored row is its
    smallest key, so with columns pre-sorted by complementary degree the
    pivot positions read off the induced filtration dimensions.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: Dict[int, Dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Mapping[int, int]) -> bool:
        work = {k: v for k, v in row.items() if v}
        while work:
            j = min(work)
            piv = self.pivots.get(j)
            if piv is None:
                _normalize(work)
                self.pivots[j] = work
                return True
            work = _combine(piv[j], work, -work[j], piv)
            if work:
                _normalize(work)
        return False


def _kernel_with_tags(columns: Sequence[Tuple[int, int, Dict[int, int]]]
                      ) -> Tuple[List[int], List[Dict[int, int]]]:
    """Kernel basis of a sparse integer matrix given column by column.

    ``columns`` is a sequence of (tag, column_id, vector) processed in
    order; a kernel vector discovered while processing a column inherits
    that column's tag.  Because elimination is incremental, the vectors
    found within any prefix of the columns span the kernel of the
    submatrix on that prefix, so tag counts give kernel dimensions of
    every tag-suffix submatrix.  Returns (tags, vectors) with vectors as
    integer {column_id: coeff} maps.
    """
    pivots: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
    tags: List[int] = []
    vectors: List[Dict[int, int]] = []
    for tag, cid, col in columns:
        vec = {k: v for k, v in col.items() if v}
        track = {cid: 1}
        closed = True
        while vec:
            i = min(vec)
            hit = pivots.get(i)
            if hit is None:
                pivots[i] = (vec, track)
                closed = False
                break
            pvec, ptrack = hit
            a, b = pvec[i], vec[i]
            vec = _combine(a, vec, -b, pvec)
            track = _combine(a, track, -b, ptrack)
            g = 0
            for v in vec.values():
                g = gcd(g, v)
            for v in track.values():
                g = gcd(g, v)
            if g > 1:
                vec = {k: v // g for k, v in vec.items()}
                track = {k: v // g for k, v in track.items()}
        if closed:
            _normalize(track)
            tags.append(tag)
            vectors.append(track)
    return tags, vectors


# ---------------------------------------------------------------------------
# the spectral sequence engine


class _PageEngine:
    """Shared caches for one spectral-sequence run.

    Everything reduces to the dimensions of Z_r^p = F^p n d^{-1}F^{p+r}.
    A kernel computation is keyed by (column level, row threshold level)
    where both indices live in the sorted list of attained filtration
    degrees, so saturated thresholds coincide and are computed once.
    """

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        B = fc.complex
        self.n = B.n_generators
        self.out = B.out
        pdeg = fc.degrees
        self.cdeg = fc.complementary_degrees
        self.P: List[int] = sorted(set(pdeg))
        self.Cl: List[int] = sorted(set(self.cdeg))
        self.m = len(self.P)
        plevel_of = {p: i for i, p in enumerate(self.P)}
        self.plevel = [plevel_of[p] for p in pdeg] if self.n else []
        # Columns for kernel runs are processed by complementary degree
        # descending, so kernel tags count dimensions of Z n G^c.
        self.cols_cdesc: List[int] = sorted(
            range(self.n), key=lambda i: (-self.cdeg[i], i))
        # Global echelon coordinates sorted by complementary degree
        # ascending: a pivot at position k lies in G^{c(k)}.
        corder = sorted(range(self.n), key=lambda i: (self.cdeg[i], i))
        self.cpos = {g: k for k, g in enumerate(corder)}
        self.pos_c = [self.cdeg[g] for g in corder]
        self._kern: Dict[Tuple[int, int], Tuple[List[int],
                                                List[Dict[int, int]]]] = {}
        self._span: Dict[Tuple[int, int, int, int], List[int]] = {}

    # -- level arithmetic ------------------------------------------------

    def level(self, p: int) -> int:
        """Index of the first attained degree >= p: F^p is spanned by
        the generators of level >= level(p)."""
        return bisect_left(self.P, p)

    # -- kernels -----------------------------------------------------------

    def kern(self, ci: int, ri: int) -> Tuple[List[int], List[Dict[int, int]]]:
        """Kernel data of d restricted to columns F^{P[ci]} and rows of
        filtration level < ri, i.e. a basis of the matching Z space."""
        ci = min(ci, self.m)
        ri = min(ri, self.m)
        key = (ci, ri)
        got = self._kern.get(key)
        if got is not None:
            return got
        cols = []
        for g in self.cols_cdesc:
            if self.plevel[g] < ci:
                continue
            row = self.out.get(g)
            if row:
                vec = {t: c for t, c in row.items() if self.plevel[t] < ri}
            else:
                vec = {}
            cols.append((self.cdeg[g], g, vec))
        got = _kernel_with_tags(cols)
        self._kern[key] = got
        return got

    def z(self, r: int, p: int) -> int:
        return len(self.kern(self.level(p), self.level(p + r))[1])

    def z_at_c(self, r: int, p: int, c: int) -> int:
        """dim (Z_r^p n G^c): kernel tags with complementary degree >= c."""
        tags, _ = self.kern(self.level(p), self.level(p + r))
        return sum(1 for t in tags if t >= c)

    # -- boundary spans ----------------------------------------------------

    def _apply_d(self, vec: Mapping[int, int]) -> Dict[int, int]:
        img: Dict[int, int] = {}
        for s, coeff in vec.items():
            row = self.out.get(s)
            if not row:
                continue
            for t, c in row.items():
                v = img.get(t, 0) + coeff * c
                if v:
                    img[t] = v
                else:
                    img.pop(t, None)
        return img

    def boundary_tags(self, r: int, p: int) -> List[int]:
        """Pivot complementary degrees for a span of the page denominator
        Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1}."""
        key = (self.level(p + 1), self.level(p + r),
               self.level(p - r + 1), self.level(p))
        got = self._span.get(key)
        if got is not None:
            return got
        ech = _Echelon()
        _tags, zvecs = self.kern(key[0], key[1])
        for vec in zvecs:
            ech.add({self.cpos[g]: v for g, v in vec.items()})
        _tags, wvecs = self.kern(key[2], key[3])
        for vec in wvecs:
            img = self._apply_d(vec)
            if img:
                ech.add({self.cpos[g]: v for g, v in img.items()})
        got = sorted(self.pos_c[k] for k in ech.pivots)
        self._span[key] = got
        return got

    # -- page assembly -------------------------------------------------------

    def page(self, r: int) -> SpectralPage:
        groups: Dict[Tuple[int, int], int] = {}
        d_ranks: Dict[int, int] = {}
        for p in self.P:
            dim = (self.z(r, p) - self.z(r - 1, p + 1)
                   + self.z(r, p - r + 1) - self.z(r - 1, p - r + 1))
            if dim:
                tags, _ = self.kern(self.level(p), self.level(p + r))
                btags = self.boundary_tags(r, p)
                levels = self.Cl + [None]
                total = 0
                for i, c in enumerate(levels[:-1]):
                    nxt = levels[i + 1]
                    zc = sum(1 for t in tags if t >= c)
                    bc = sum(1 for t in btags if t >= c)
                    if nxt is not None:
                        zc -= sum(1 for t in tags if t >= nxt)
                        bc -= sum(1 for t in btags if t >= nxt)
                    g = zc - bc
                    if g < 0:
                        raise KhError(
                            "internal error: negative graded piece "
                            f"at page {r}, p={p}, c={c}")
                    if g:
                        groups[(p, c)] = g
                        total += g
                if total != dim:
                    raise KhError(
                        "internal error: complementary grading of page "
                        f"{r} at p={p} sums to {total}, expected {dim}")
            rk = ((self.z(r, p) - self.z(r + 1, p))
                  - (self.z(r - 1, p + 1) - self.z(r, p + 1)))
            if rk < 0:
                raise KhError(
                    f"internal error: negative d_{r} rank at p={p}")
            if rk:
                d_ranks[p] = rk
        return SpectralPage(r=r, groups=groups, d_ranks=d_ranks)

    # -- the abutment ----------------------------------------------------

    def homology_filtration_dims(self) -> Dict[int, int]:
        """dim gr_p H(C) computed directly from kernel/image ranks,
        independently of the page ladder.

        dim gr_p H = dim(ker d n F^p) - dim(im d n F^p), minus the same
        at p + 1.  A boundary lies in F^p exactly when its coordinates of
        degree < p vanish, so

            dim(im d n F^p) = rank d - rank(d on rows of degree < p).

        By level index k = level(p), k = 0 gives rank d and k = m gives
        0, so each level costs at most one ``rank_over_q`` call: m calls
        in all.
        """
        if not self.m:
            return {}
        d = _matrix_of(self.fc.complex)
        rank_d = rank_over_q(d)
        meet = [rank_d]
        for k in range(1, self.m):
            below = {(t, s): c for (t, s), c in d.entries.items()
                     if self.plevel[t] < k}
            meet.append(rank_d - rank_over_q(
                SparseIntMatrix(self.n, self.n, below)))
        meet.append(0)
        out: Dict[int, int] = {}
        for k, p in enumerate(self.P):
            dim = ((len(self.kern(k, self.m)[1]) - meet[k])
                   - (len(self.kern(k + 1, self.m)[1]) - meet[k + 1]))
            if dim:
                out[p] = dim
        return out


def spectral_sequence(fc: FilteredComplex) -> List[SpectralPage]:
    """All pages of the weight-filtration spectral sequence over Q.

    Pages are emitted from E_0 until the differentials have vanished for
    max(h-spread, ceil(q-spread / 2), 1) consecutive pages *and* the
    page index has passed the filtration spread, past which no further
    differential can fit inside the grading range.  The terminal page is
    checked, level by level, against the associated graded of H(C),
    computed separately from kernel dimensions and from
    dim(im d n F^p) = rank d - rank(d on rows of degree < p).
    """
    engine = _PageEngine(fc)
    B = fc.complex
    if B.n_generators:
        hs = [h for h, _q in B.gradings]
        qs = [q for _h, q in B.gradings]
        h_spread = max(hs) - min(hs)
        q_spread = max(qs) - min(qs)
    else:
        h_spread = q_spread = 0
    zero_needed = max(h_spread, -(-q_spread // 2), 1)
    p_spread = (engine.P[-1] - engine.P[0]) if engine.P else 0

    pages: List[SpectralPage] = []
    consecutive_zero = 0
    r = 0
    while True:
        page = engine.page(r)
        pages.append(page)
        consecutive_zero = consecutive_zero + 1 if not page.d_ranks else 0
        if consecutive_zero >= zero_needed and r >= p_spread:
            break
        r += 1
        if r > p_spread + zero_needed + 2:
            raise KhError("internal error: spectral sequence failed to "
                          "stabilize within the grading spread")

    expected = engine.homology_filtration_dims()
    got = pages[-1].filtration_ranks()
    if expected != got:
        raise KhError(
            "internal error: terminal page does not match the associated "
            f"graded homology: page gives {got}, homology gives {expected}")
    return pages


# ---------------------------------------------------------------------------
# sandbox for perturbed differentials


def _matrix_of(B: BigradedComplex) -> SparseIntMatrix:
    n = B.n_generators
    return SparseIntMatrix(
        n, n,
        {(t, s): c for s, row in B.out.items() for t, c in row.items()})


def _mat_diff(x: SparseIntMatrix, y: SparseIntMatrix) -> SparseIntMatrix:
    ent = dict(x.entries)
    for k, v in y.entries.items():
        nv = ent.get(k, 0) - v
        if nv:
            ent[k] = nv
        else:
            ent.pop(k, None)
    return SparseIntMatrix(x.nrows, x.ncols, ent)


def _identity(n: int) -> SparseIntMatrix:
    return SparseIntMatrix(n, n, {(i, i): 1 for i in range(n)})


@dataclass(frozen=True)
class PerturbedDifferential:
    """A differential with the same order contracts as the Khovanov one.

    ``matrix`` squares to zero, has order >= (1, 0), and differs from
    ``base`` by a map of order >= (1, 2).  ``certificate`` holds the
    conjugating map g (with matrix = g base g^{-1}) when the instance
    came from the conjugation sandbox, and None for raw input.
    """

    matrix: SparseIntMatrix
    base: SparseIntMatrix
    gradings: Tuple[Tuple[int, int], ...]
    certificate: Optional[SparseIntMatrix] = None

    def __post_init__(self):
        if (self.matrix @ self.matrix).nnz():
            raise NotADifferential(
                "perturbed differential does not square to zero")
        s, t = self.order()
        if not (s >= 1 and t >= 0):
            raise OrderViolation(
                f"perturbed differential has order {(s, t)}, needs >= (1, 0)")
        s, t = self.difference_order()
        if not (s >= 1 and t >= 2):
            raise OrderViolation(
                f"difference from the base differential has order {(s, t)}, "
                "needs >= (1, 2)")

    def order(self) -> Tuple[float, float]:
        return op_order(self.matrix, self.gradings)

    def difference(self) -> SparseIntMatrix:
        return _mat_diff(self.matrix, self.base)

    def difference_order(self) -> Tuple[float, float]:
        return op_order(self.difference(), self.gradings)

    def complex(self) -> BigradedComplex:
        return BigradedComplex(
            self.gradings,
            ((s, t, c) for (t, s), c in self.matrix.entries.items()))

    def filtered(self, weight: Tuple[int, int]) -> FilteredComplex:
        return FilteredComplex(self.complex(), weight)


def sandbox_perturb(source, seed: int = 0, mode: str = "conjugate",
                    density: float = 0.1,
                    raw: Optional[SparseIntMatrix] = None
                    ) -> PerturbedDifferential:
    """Build a perturbed differential on an assembled Khovanov complex.

    ``source`` is a KhovanovComplex (anything with a bigraded_complex()
    method) or a BigradedComplex.  mode="conjugate" draws a random map n
    with every entry raising h by >= 1 and q by >= 2 (each eligible
    entry nonzero with the given density, values +-1, seeded PRNG over
    the eligible pairs in sorted order), sets g = id + n, and conjugates
    the base differential; n is strictly grading-increasing, hence
    nilpotent, and the inverse of g is the finite alternating sum of its
    powers.  mode="raw" validates a user-supplied matrix against the
    square-zero and order contracts instead.
    """
    B = source.bigraded_complex() if hasattr(source, "bigraded_complex") \
        else source
    if not isinstance(B, BigradedComplex):
        raise TypeError("source must be a Khovanov complex or a "
                        "BigradedComplex")
    n_gens = B.n_generators
    base = _matrix_of(B)
    gradings = tuple(B.gradings)

    if mode == "raw":
        if raw is None:
            raise ValueError("mode='raw' requires the raw matrix")
        return PerturbedDifferential(
            matrix=raw, base=base, gradings=gradings, certificate=None)
    if mode != "conjugate":
        raise ValueError(f"unknown sandbox mode {mode!r}")

    if n_gens > SANDBOX_GENERATOR_LIMIT:
        raise KhError(
            f"sandbox perturbation is limited to {SANDBOX_GENERATOR_LIMIT} "
            f"generators ({n_gens} present); eligibility scanning is "
            "quadratic in the generator count")

    rng = random.Random(seed)
    by_h: Dict[int, List[int]] = {}
    for i, (h, _q) in enumerate(gradings):
        by_h.setdefault(h, []).append(i)
    n_entries: Dict[Tuple[int, int], int] = {}
    for j in range(n_gens):
        hj, qj = gradings[j]
        for h in sorted(by_h):
            if h < hj + 1:
                continue
            for i in by_h[h]:
                if gradings[i][1] - qj >= 2:
                    if rng.random() < density:
                        n_entries[(i, j)] = rng.choice((-1, 1))
    nmat = SparseIntMatrix(n_gens, n_gens, n_entries)
    ident = _identity(n_gens)
    g = SparseIntMatrix(n_gens, n_gens,
                        {**ident.entries, **nmat.entries})
    # g^{-1} = sum_k (-n)^k, finite because n strictly raises h.
    g_inv_entries = dict(ident.entries)
    term = nmat
    sign = -1
    while term.nnz():
        for k, v in term.entries.items():
            nv = g_inv_entries.get(k, 0) + sign * v
            if nv:
                g_inv_entries[k] = nv
            else:
                g_inv_entries.pop(k, None)
        term = term @ nmat
        sign = -sign
    g_inv = SparseIntMatrix(n_gens, n_gens, g_inv_entries)
    perturbed = g @ base @ g_inv
    return PerturbedDifferential(
        matrix=perturbed, base=base, gradings=gradings, certificate=g)


# ---------------------------------------------------------------------------
# order bounds for cobordism maps


def _check_self_intersection(s_dot_s: int) -> None:
    if s_dot_s % 2:
        raise OddSelfIntersection(
            f"self-intersection number {s_dot_s} is odd")


def q_order_bound(chi: int, s_dot_s: int,
                  dim_g: Optional[int] = None) -> int:
    """Lower bound for the quantum-degree shift of a cobordism-induced
    map from the surface Euler characteristic and self-intersection.

    With a family dimension supplied (and self-intersection below 8) the
    bound improves to chi + s_dot_s + dim_g.
    """
    _check_self_intersection(s_dot_s)
    if dim_g is not None and s_dot_s < 8:
        return chi + s_dot_s + dim_g
    return chi + s_dot_s - 4 * (s_dot_s // 8)


def cobordism_order(chi: int, s_dot_s: int) -> Tuple[int, int]:
    """Bidegree order (homological, quantum) of a cobordism-induced map."""
    _check_self_intersection(s_dot_s)
    return (s_dot_s // 2, chi + (3 * s_dot_s) // 2)
