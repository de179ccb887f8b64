"""Output checks that share no code with the khcube homology pipeline.

* ``state_sum_euler``: the graded Euler characteristic of a diagram's
  Khovanov complex, summed over the cube's states.  Circle counts and
  the writhe of retained crossings come from the benchmark's own walk
  over the PD code; gradings from the formula in ``cube.py``'s module
  docstring.  Link components are oriented by khcube's documented rule
  (see ``_trace``), which for braid closures is not always the braid's
  upward direction: 91 of 2000 random 3-4 strand closures get other
  crossing signs than their letters give.
* ``mod2_dims``: dimensions of H(C; F_2) per bigrading, from bitset
  Gaussian elimination.  By the universal coefficient theorem they fix
  the free rank plus the number of even torsion divisors of every
  integral group, so a changed rank or a lost, added or odd-for-even
  divisor shows.  (F_3 would also catch odd torsion; it tripled the
  check's cost, and the braid items of two seeds held only Z/2.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Crossing = Tuple[int, int, int, int]


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


_STRAIGHT = (2, 3, 0, 1)
_SMOOTH = ((1, 0, 3, 2), (3, 2, 1, 0))  # 0-smoothing, 1-smoothing


def _trace(crossings: Sequence[Crossing],
           ends: Mapping[int, List[Tuple[int, int]]],
           exits: Sequence[Sequence[int]]
           ) -> Tuple[int, Dict[int, Tuple[int, int]]]:
    """Walk the curves in which crossing ci sends slot s to exits[ci][s].

    Each curve leaves its smallest arc toward that arc's second
    occurrence in crossing order (the orientation rule of
    ``PlanarDiagram.components``).  Returns the number of curves and,
    per arc, the (crossing, slot) it runs into.
    """
    head: Dict[int, Tuple[int, int]] = {}
    curves = 0
    for start in sorted(ends):
        if start in head:
            continue
        curves += 1
        arc, end = start, ends[start][1]
        while arc not in head:
            head[arc] = end
            ci, slot = end
            out = (ci, exits[ci][slot])
            arc = crossings[ci][out[1]]
            first, second = ends[arc]
            end = second if first == out else first
    return curves, head


def _sign(x: Crossing, ci: int, head: Mapping[int, Tuple[int, int]]) -> int:
    """+1 when the under-strand runs slot 0 -> 2 and the over-strand
    slot 3 -> 1; reversing either strand flips the sign."""
    under = 1 if head[x[0]] == (ci, 0) else -1
    over = 1 if head[x[3]] == (ci, 3) else -1
    return under * over


def state_sum_euler(crossings: Sequence[Crossing], marked: Iterable[int],
                    free_circles: int = 0) -> Dict[int, int]:
    """sum over states v of (-1)^h(v) q^shift(v) (q + 1/q)^circles(v).

    With |v| the number of 1-smoothings, n+/n- the sign counts of the
    marked crossings, w(v) the writhe of the retained crossings in state
    v and sigma = w(v) - w(o) against the oriented resolution o:
    h(v) = -|v| + sigma/2 + n-, shift(v) = -|v| + 3 sigma/2 - n+ + 2 n-.
    The 0-smoothing of X(a,b,c,d) joins (a,b),(c,d) and the 1-smoothing
    (a,d),(b,c); a retained crossing lets both strands pass.
    """
    marked = sorted(marked)
    ends: Dict[int, List[Tuple[int, int]]] = {}
    for ci, x in enumerate(crossings):
        for slot, arc in enumerate(x):
            ends.setdefault(arc, []).append((ci, slot))
    retained = [c for c in range(len(crossings)) if c not in marked]

    def state(bits: Sequence[int]) -> Tuple[int, int]:
        exits = [_STRAIGHT] * len(crossings)
        for c, b in zip(marked, bits):
            exits[c] = _SMOOTH[b]
        circles, head = _trace(crossings, ends, exits)
        writhe = sum(_sign(crossings[c], c, head) for c in retained)
        return circles + free_circles, writhe

    _, head = _trace(crossings, ends, [_STRAIGHT] * len(crossings))
    signs = [_sign(crossings[c], c, head) for c in marked]
    n_plus = signs.count(1)
    n_minus = len(marked) - n_plus
    _, w_o = state([0 if s == 1 else 1 for s in signs])
    euler: Dict[int, int] = {}
    for mask in range(1 << len(marked)):
        bits = [(mask >> i) & 1 for i in range(len(marked))]
        circles, writhe = state(bits)
        sigma = writhe - w_o
        if sigma % 2:
            raise ValueError(f"odd self-intersection number at {bits}")
        ones = sum(bits)
        h = -ones + sigma // 2 + n_minus
        shift = -ones + 3 * (sigma // 2) - n_plus + 2 * n_minus
        sign = -1 if h % 2 else 1
        for k in range(circles + 1):
            q = shift + 2 * k - circles
            euler[q] = euler.get(q, 0) + sign * _binom(circles, k)
    return {q: v for q, v in euler.items() if v}


def table_euler(table: Mapping[Tuple[int, int], Tuple[int, Sequence[int]]]
                ) -> Dict[int, int]:
    """Euler characteristic of an integral table {(h, q): (free, torsion)}."""
    euler: Dict[int, int] = {}
    for (h, q), (free, _tors) in table.items():
        euler[q] = euler.get(q, 0) + (-free if h % 2 else free)
    return {q: v for q, v in euler.items() if v}


# -- homology over F_2 ------------------------------------------------------


def _rank_f2(rows: Iterable[int]) -> int:
    """Rank of rows held as bitsets, by elimination on the lowest bit."""
    pivots: Dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = row
                break
            row ^= piv
    return len(pivots)


def mod2_dims(gradings: Sequence[Tuple[int, int]],
              out: Mapping[int, Mapping[int, int]]
              ) -> Dict[Tuple[int, int], int]:
    """{(h, q): dim H^{h,q}(C; F_2)} for a differential of bidegree
    (1, 0) given as ``out[generator] = {target: coefficient}``."""
    index: Dict[int, int] = {}
    block: Dict[Tuple[int, int], int] = {}
    for g, key in enumerate(gradings):
        index[g] = block.get(key, 0)
        block[key] = index[g] + 1
    rows: Dict[Tuple[int, int], List[int]] = {}
    for g, targets in out.items():
        row = 0
        for t, c in targets.items():
            if c % 2:
                row |= 1 << index[t]
        rows.setdefault(gradings[g], []).append(row)
    rank = {key: _rank_f2(r) for key, r in rows.items()}
    dims = {(h, q): n - rank.get((h, q), 0) - rank.get((h - 1, q), 0)
            for (h, q), n in block.items()}
    return {k: v for k, v in dims.items() if v}


def table_mod2_dims(table: Mapping[Tuple[int, int],
                                   Tuple[int, Sequence[int]]]
                    ) -> Dict[Tuple[int, int], int]:
    """dim H^{h,q}(C; F_2) predicted from an integral table: free(h,q)
    plus the even torsion divisors at (h,q) and at (h+1,q)."""
    dims: Dict[Tuple[int, int], int] = {}
    for (h, q), (free, torsion) in table.items():
        even = sum(1 for d in torsion if d % 2 == 0)
        dims[(h, q)] = dims.get((h, q), 0) + free + even
        dims[(h - 1, q)] = dims.get((h - 1, q), 0) + even
    return {k: v for k, v in dims.items() if v}
