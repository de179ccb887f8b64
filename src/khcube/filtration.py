"""Weight filtrations, spectral sequences, and a perturbation sandbox.

A ``FilteredComplex`` equips a :class:`~khcube.chain.BigradedComplex`
with the filtration degree ``p(x) = a*h(x) + b*q(x)`` for a weight pair
``(a, b)`` with ``a, b >= 0``, not both zero, and the complementary
degree ``c(x)``: q for the h-side weights, h for the pure-q weight.  The
differential must raise ``p`` by at least ``a`` and strictly raise
``(p, c)`` on every nonzero entry; Khovanov and sandbox complexes raise
h by one, so every accepted weight passes.

``spectral_sequence`` computes the pages of the induced spectral
sequence over the rationals from one column reduction of d in the total
order ``(p, c, id)``, the barcode reading of a filtered complex
(Edelsbrunner-Letscher-Zomorodian 2002, Zomorodian-Carlsson 2005).  The
reduction pairs a generator x with the low y of its reduced column; the
pair lives on E_0 ... E_g for the gap ``g = p(y) - p(x)``, at (p(x),
c(x)) and (p(y), c(y)), and is one rank of d_g at p(x).  Unpaired
generators survive to E_infinity.  The terminal page is checked against
the associated graded of H(C):

    dim gr_p H = dim(ker d n F^p) - dim(im d n F^p), less the same at p+1,
    dim(im d n F^p) = rank d - rank(d on rows of degree < p),

with the kernel part counted from the reduction's zero columns and the
image part from one ``rank_over_q`` call per attained filtration degree.

``sandbox_perturb`` manufactures perturbed differentials that respect
the same order contracts as the Khovanov differential: conjugation
``g d g^{-1}`` by ``g = id + n`` where ``n`` strictly increases both
gradings, so the perturbation is invisible in leading filtration order.
n, g^{-1} and the result are row maps {src: {tgt: coeff}}, the form the
complex keeps its differential in; g^{-1} takes one pass over the
generators by h descending, because n strictly raises h.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .chain import BigradedComplex, SparseIntMatrix, rank_over_q
from .errors import KhError, NotFiltered, OddSelfIntersection, OrderViolation

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

#: A map {src: {tgt: coeff}}, the form a complex keeps its differential in.
Rows = Dict[int, Dict[int, int]]

#: Largest complex the random sandbox will perturb.  Eligibility scans
#: are quadratic in the generator count, so the sandbox targets the
#: small-diagram corpus, not torus-knot sized complexes.
SANDBOX_GENERATOR_LIMIT = 4000


# ---------------------------------------------------------------------------
# map order


def op_order(f: Mapping[int, Mapping[int, int]],
             gradings: Sequence[Tuple[int, int]]) -> Tuple[float, float]:
    """Componentwise filtration shift (s, t) of a graded map.

    ``f`` is a row map {src: {tgt: coeff}}.  s is the minimum of
    h(target) - h(source) over nonzero entries and t the minimum of
    q(target) - q(source); the two minima may come from different
    entries.  The zero map reports ``(inf, inf)``.
    """
    s = t = math.inf
    for src, row in f.items():
        hs, qs = gradings[src]
        for tgt, coeff in row.items():
            if not coeff:
                continue
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
    of degree >= p.  The differential must raise the degree by at least
    ``a`` and strictly raise the pair (degree, complementary degree).
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
        deg = self.degrees
        for src, row in complex.out.items():
            for tgt, coeff in row.items():
                if not coeff:
                    continue
                if deg[tgt] - deg[src] < a:
                    raise NotFiltered(
                        f"differential entry {src} -> {tgt} shifts the "
                        f"filtration degree by {deg[tgt] - deg[src]} < {a} "
                        f"for weight {self.weight}")
                if (deg[tgt], comp[tgt]) <= (deg[src], comp[src]):
                    raise NotFiltered(
                        f"differential entry {src} -> {tgt} does not raise "
                        f"(p, c) = {(deg[src], comp[src])} for weight "
                        f"{self.weight}")

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
# the spectral sequence


def _reduce(fc: FilteredComplex) -> Tuple[List[Tuple[int, int]], List[int]]:
    """One column reduction of d in the total order (p, c, id).

    Columns are processed from the highest key down; the low of a column
    is its entry with the smallest key, and a low already held by an
    earlier column is cleared by the fraction-free step
    ``a * col - b * held`` with the gcd of the entries divided out.
    Returns the pairs (x, low) of nonzero reduced columns and the
    generators whose column reduces to zero, in column order.
    """
    key = sorted(range(fc.complex.n_generators),
                 key=lambda g: (fc.degrees[g], fc.complementary_degrees[g], g))
    pos = {g: k for k, g in enumerate(key)}
    held: Dict[int, Dict[int, int]] = {}
    pairs: List[Tuple[int, int]] = []
    cycles: List[int] = []
    for x in reversed(key):
        col = {pos[t]: c for t, c in fc.complex.out.get(x, {}).items() if c}
        while col:
            low = min(col)
            piv = held.get(low)
            if piv is None:
                held[low] = col
                pairs.append((x, key[low]))
                break
            a, b = piv[low], col[low]
            col = {k: v for k in col.keys() | piv.keys()
                   if (v := a * col.get(k, 0) - b * piv.get(k, 0))}
            g = gcd(*col.values())
            if g > 1:
                col = {k: v // g for k, v in col.items()}
        else:
            cycles.append(x)
    return pairs, cycles


def _graded_homology(fc: FilteredComplex, cycles: Sequence[int]
                     ) -> Dict[int, int]:
    """dim gr_p H(C) = dim(ker d n F^p) - dim(im d n F^p), less the same
    at p + 1.

    F^p is a prefix of the reduction's column order, so dim(ker d n F^p)
    counts the zero columns of degree >= p.  A boundary lies in F^p
    exactly when its coordinates of degree < p vanish, so

        dim(im d n F^p) = rank d - rank(d on rows of degree < p),

    one ``rank_over_q`` call per attained degree, sharing nothing with
    the reduction.
    """
    levels = fc.levels
    d = _matrix_of(fc.complex)
    rank_d = rank_over_q(d) if levels else 0
    out: Dict[int, int] = {}
    prev = 0
    for p in reversed(levels):
        below = {(t, s): c for (t, s), c in d.entries.items()
                 if fc.degrees[t] < p}
        meet = rank_d - (rank_over_q(SparseIntMatrix(d.nrows, d.ncols, below))
                         if below else 0)
        dim_p = sum(1 for g in cycles if fc.degrees[g] >= p) - meet
        if dim_p - prev:
            out[p] = dim_p - prev
        prev = dim_p
    return out


def spectral_sequence(fc: FilteredComplex) -> List[SpectralPage]:
    """All pages of the weight-filtration spectral sequence over Q.

    The pages are read from the pairs of one filtered column reduction
    (:func:`_reduce`): a pair (x, y) of gap g = p(y) - p(x) puts one
    generator at (p(x), c(x)) and one at (p(y), c(y)) on E_0 ... E_g and
    adds 1 to the rank of d_g at p(x); an unpaired generator survives to
    E_infinity.  Pages are emitted from E_0 until the differentials have
    vanished for max(h-spread, ceil(q-spread / 2), 1) consecutive pages
    *and* the page index has passed the filtration spread, past which no
    further differential can fit inside the grading range.  The terminal
    page is checked, level by level, against the associated graded of
    H(C): dim(ker d n F^p) from the zero columns of the reduction, and
    dim(im d n F^p) = rank d - rank(d on rows of degree < p).
    """
    B = fc.complex
    if B.n_generators:
        hs = [h for h, _q in B.gradings]
        qs = [q for _h, q in B.gradings]
        h_spread = max(hs) - min(hs)
        q_spread = max(qs) - min(qs)
    else:
        h_spread = q_spread = 0
    zero_needed = max(h_spread, -(-q_spread // 2), 1)
    levels = fc.levels
    p_spread = (levels[-1] - levels[0]) if levels else 0

    pairs, cycles = _reduce(fc)
    deg, comp = fc.degrees, fc.complementary_degrees
    gaps = [deg[y] - deg[x] for x, y in pairs]
    lows = {y for _x, y in pairs}
    survivors = Counter((deg[g], comp[g]) for g in cycles if g not in lows)
    # No gap exceeds the filtration spread, so the rule stops at the first
    # page past the spread and zero_needed pages past the largest gap.
    last = max(p_spread, max(gaps, default=-1) + zero_needed)
    pages: List[SpectralPage] = []
    for r in range(last + 1):
        groups = Counter(survivors)
        for (x, y), gap in zip(pairs, gaps):
            if gap >= r:
                groups[(deg[x], comp[x])] += 1
                groups[(deg[y], comp[y])] += 1
        d_ranks = Counter(deg[x] for (x, _y), gap in zip(pairs, gaps)
                          if gap == r)
        pages.append(SpectralPage(r=r, groups=dict(groups),
                                  d_ranks=dict(d_ranks)))

    expected = _graded_homology(fc, cycles)
    got = pages[-1].filtration_ranks()
    if expected != got:
        raise KhError(
            "internal error: terminal page does not match the associated "
            f"graded homology: page gives {got}, homology gives {expected}")
    return pages


# ---------------------------------------------------------------------------
# sandbox for perturbed differentials

#: Chance that an eligible entry of the sandbox's map n is nonzero.
_SANDBOX_DENSITY = 0.1


def _matrix_of(B: BigradedComplex) -> SparseIntMatrix:
    n = B.n_generators
    return SparseIntMatrix(
        n, n,
        {(t, s): c for s, row in B.out.items() for t, c in row.items()})


def _apply(f: Rows, v: Mapping[int, int]) -> Dict[int, int]:
    """f(v) for a row map f and a vector v, both keyed by generator."""
    acc: Dict[int, int] = {}
    get = acc.get
    for m, c in v.items():
        for t, w in f.get(m, {}).items():
            acc[t] = get(t, 0) + c * w
    return {t: c for t, c in acc.items() if c}


@dataclass(frozen=True)
class PerturbedDifferential:
    """A differential with the same order contracts as the Khovanov one.

    ``matrix``, ``base`` and ``certificate`` are row maps
    {src: {tgt: coeff}} on the generators graded by ``gradings``.
    ``matrix`` squares to zero, has order >= (1, 0), and differs from
    ``base`` by a map of order >= (1, 2).  ``certificate`` holds the rows
    of n, with matrix = g base g^{-1} for g = id + n, when the instance
    came from :func:`sandbox_perturb`, and None for a differential
    given directly.
    """

    matrix: Rows
    base: Rows
    gradings: Tuple[Tuple[int, int], ...]
    certificate: Optional[Rows] = None

    def __post_init__(self):
        self.complex().check_square_zero()
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

    def difference(self) -> Rows:
        """matrix - base, as a row map."""
        out: Rows = {}
        for s in self.matrix.keys() | self.base.keys():
            row = dict(self.matrix.get(s, {}))
            for t, c in self.base.get(s, {}).items():
                row[t] = row.get(t, 0) - c
            row = {t: c for t, c in row.items() if c}
            if row:
                out[s] = row
        return out

    def difference_order(self) -> Tuple[float, float]:
        return op_order(self.difference(), self.gradings)

    def complex(self) -> BigradedComplex:
        return BigradedComplex(self.gradings, self.matrix)

    def filtered(self, weight: Tuple[int, int]) -> FilteredComplex:
        return FilteredComplex(self.complex(), weight)


def sandbox_perturb(source, seed: int = 0) -> PerturbedDifferential:
    """Conjugate the differential of an assembled complex by g = id + n.

    ``source`` is a KhovanovComplex (anything with a bigraded_complex()
    method) or a BigradedComplex.  n raises h by >= 1 and q by >= 2 on
    every entry: for each source generator in id order, each eligible
    target (by h ascending, then id) is nonzero with chance 0.1 under a
    PRNG seeded with ``seed``, with value +-1.  n strictly raises h, so
    g is invertible over Z; g^{-1} is built in one pass over the
    generators by h descending,

        g^{-1}(e_j) = e_j - sum_k n_kj g^{-1}(e_k),

    since every such k has larger h than j and is already done.  Then
    g d g^{-1} is composed one generator at a time.  n, g^{-1} and the
    result are {src: {tgt: coeff}} row maps like the complex's own.
    """
    B = source.bigraded_complex() if hasattr(source, "bigraded_complex") \
        else source
    if not isinstance(B, BigradedComplex):
        raise TypeError("source must be a Khovanov complex or a "
                        "BigradedComplex")
    gradings = B.gradings
    n_gens = len(gradings)
    if n_gens > SANDBOX_GENERATOR_LIMIT:
        raise KhError(
            f"sandbox perturbation is limited to {SANDBOX_GENERATOR_LIMIT} "
            f"generators ({n_gens} present); eligibility scanning is "
            "quadratic in the generator count")

    rng = random.Random(seed)
    by_h: Dict[int, List[int]] = {}
    for i, (h, _q) in enumerate(gradings):
        by_h.setdefault(h, []).append(i)
    levels = sorted(by_h)
    n: Rows = {}
    for j, (hj, qj) in enumerate(gradings):
        row = {}
        for h in levels:
            if h < hj + 1:
                continue
            for i in by_h[h]:
                if gradings[i][1] - qj >= 2 and \
                        rng.random() < _SANDBOX_DENSITY:
                    row[i] = rng.choice((-1, 1))
        if row:
            n[j] = row
    g_inv: Rows = {}
    for h in reversed(levels):
        for j in by_h[h]:
            col = {k: -c for k, c in _apply(g_inv, n.get(j, {})).items()}
            col[j] = 1
            g_inv[j] = col
    g = {j: {j: 1, **n.get(j, {})} for j in range(n_gens)}
    d = B.out
    perturbed: Rows = {}
    for j in range(n_gens):
        image = _apply(g, _apply(d, g_inv[j]))
        if image:
            perturbed[j] = image
    return PerturbedDifferential(
        matrix=perturbed, base=d, gradings=gradings, certificate=n)


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
