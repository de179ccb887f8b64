"""The Z_r^p page ladder, kept as a test oracle for ``spectral_sequence``.

This is the page engine ``khcube.filtration`` used before pages were
read from one filtered column reduction.  Every page is a combination
of the dimensions of the approximate-cycle spaces

    Z_r^p = {x in F^p : dx in F^{p+r}},    F^p = span{x : p(x) >= p},

each the kernel of an integer submatrix of the differential, and each
(r, p) denominator Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1} is spanned in a
fresh echelon.  It shares no linear algebra with the reduction, so page
agreement on a corpus is an independent check of the barcode reading.
``spectral_sequence`` here has the same stopping rule and terminal
check as the package's.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Dict, List, Mapping, Sequence, Tuple

from khcube.chain import SparseIntMatrix, rank_over_q
from khcube.errors import KhError
from khcube.filtration import FilteredComplex, SpectralPage, _matrix_of


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
