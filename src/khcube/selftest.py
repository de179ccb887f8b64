"""Bundled acceptance suite: ten numbered checks, one line each.

Each check function returns a short success summary or raises; the
runner prints ``criterion NN PASS/FAIL`` lines and returns a process
exit code (0 all green, 1 otherwise).  The test-suite drives the same
check functions through pytest, so the CLI ``selftest`` subcommand and
the repository tests agree by construction.

The trefoil check carries its own dense textbook Smith-normal-form
oracle, deliberately sharing no code with the sparse homology pipeline
it validates.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import corpus
from .chain import BigradedComplex, SparseIntMatrix, rank_over_q
from .cube import NONORIENTABLE_BAND, build_cube
from .diagram import PlanarDiagram
from .errors import KhError
from .filtration import FilteredComplex, sandbox_perturb, spectral_sequence
from .invariants import (alexander, differential_feasibility, mod4_betti,
                         rank_lower_bound)
from .khovanov import assemble, reduced_assemble
from .laurent import LaurentPoly

__all__ = ["CRITERIA", "run"]


# ---------------------------------------------------------------------------
# shared helpers


def _flat_homology(groups) -> Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]]:
    return {k: (g.free_rank, tuple(g.torsion))
            for k, g in groups.items() if not g.is_zero()}


def _random_pd(rng: random.Random, n: int) -> List[Tuple[int, int, int, int]]:
    """A random PD code candidate: 2n arc labels, each used twice."""
    slots = [a for a in range(1, 2 * n + 1) for _ in range(2)]
    rng.shuffle(slots)
    return [tuple(slots[4 * i: 4 * i + 4]) for i in range(n)]


def _corpus_small() -> List[str]:
    """Corpus names cheap enough for per-seed sweeps (everything except
    the 15-crossing torus closure, handled by its own criterion)."""
    return [n for n in corpus.names() if n != "t45"]


_T45_TABLE: Optional[Dict[Tuple[int, int], int]] = None
_T45_SECONDS: Optional[float] = None


def _t45_reduced_table() -> Tuple[Dict[Tuple[int, int], int], float]:
    """Reduced rational rank table of the (4,5) torus closure, cached.

    The closure is a genuine diagram, so KhovanovComplex.rational_ranks
    takes the local scan (``khcube.local``) and builds no cube: d o d = 0
    is checked in the cobordism category after every crossing, and the
    final complex once more, with exact bidegree (+1, 0), by
    BigradedComplex.homology and KhovanovComplex.homology.  So the
    square-zero/purity criterion covers this diagram inside the budget
    of the rank check.
    """
    global _T45_TABLE, _T45_SECONDS
    if _T45_TABLE is None:
        t0 = time.perf_counter()
        _T45_TABLE = reduced_assemble(corpus.get("t45")).rational_ranks()
        _T45_SECONDS = time.perf_counter() - t0
    return _T45_TABLE, _T45_SECONDS


# ---------------------------------------------------------------------------
# criterion 3 oracle: dense textbook Smith normal form, separate code path


def _dense_smith_divisors(matrix: List[List[int]]) -> List[int]:
    m = [row[:] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    divisors: List[int] = []
    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] and (pivot is None or
                                abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            p = m[t][t]
            changed = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // p
                    if q:
                        for j in range(t, nc):
                            m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        changed = True
                        break
            if changed:
                continue
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // p
                    if q:
                        for i in range(t, nr):
                            m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for i in range(t, nr):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        changed = True
                        break
            if not changed:
                break
        p = m[t][t]
        offender = None
        for i in range(t + 1, nr):
            if any(m[i][j] % p for j in range(t + 1, nc)):
                offender = i
                break
        if offender is not None:
            for j in range(t, nc):
                m[t][j] += m[offender][j]
            continue
        divisors.append(abs(p))
        t += 1
    return divisors


def _dense_homology(bc: BigradedComplex
                    ) -> Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]]:
    slots: Dict[Tuple[int, int], List[int]] = {}
    for g, hq in enumerate(bc.gradings):
        slots.setdefault(hq, []).append(g)

    def matrix_between(src: Tuple[int, int],
                       tgt: Tuple[int, int]) -> List[List[int]]:
        rows = slots.get(tgt, [])
        cols = slots.get(src, [])
        pos = {g: i for i, g in enumerate(rows)}
        dense = [[0] * len(cols) for _ in rows]
        for j, g in enumerate(cols):
            for t, c in bc.out.get(g, {}).items():
                if t in pos:
                    dense[pos[t]][j] = c
        return dense

    result = {}
    for (h, q), gens in slots.items():
        d_out = _dense_smith_divisors(matrix_between((h, q), (h + 1, q)))
        d_in = _dense_smith_divisors(matrix_between((h - 1, q), (h, q)))
        free = len(gens) - len(d_out) - len(d_in)
        torsion = tuple(d for d in d_in if d > 1)
        if free or torsion:
            result[(h, q)] = (free, torsion)
    return result


# ---------------------------------------------------------------------------
# criterion checks


def check_01_square_zero_purity() -> str:
    t0 = time.perf_counter()
    for name in _corpus_small():
        bc = assemble(corpus.get(name)).bigraded_complex(check=True)
        degs = bc.differential_bidegrees()
        assert degs <= {(1, 0)}, f"{name}: bidegrees {degs}"
    rng = random.Random(20260813)
    validated = 0
    for n in (2, 3, 4):
        for _ in range(500):
            code = _random_pd(rng, n)
            try:
                kc = assemble(PlanarDiagram.build(code))
            except KhError:
                continue
            bc = kc.bigraded_complex(check=True)
            degs = bc.differential_bidegrees()
            assert degs <= {(1, 0)}, f"{code}: bidegrees {degs}"
            validated += 1
    elapsed = time.perf_counter() - t0
    assert validated >= 50, f"only {validated} random PD codes validated"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    return (f"corpus (torus closure under its own check) "
            f"+ {validated} random diagrams in {elapsed:.1f}s")


def _free_euler(table: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]]
                ) -> LaurentPoly:
    """Graded Euler characteristic of a flattened homology table."""
    acc: Dict[int, int] = {}
    for (h, q), (free, _) in table.items():
        acc[q] = acc.get(q, 0) + (free if h % 2 == 0 else -free)
    return LaurentPoly(acc)


def check_02_unknot() -> str:
    """The reduced complex is the basepoint-labelled-x part of the
    unreduced one with no grading shift, so reduced generators sit in odd
    q and chi(unreduced) = (q^2 + 1) chi(reduced); for the unknot that
    places the reduced group at (0, -1)."""
    un = _flat_homology(assemble(corpus.get("unknot")).homology())
    assert un == {(0, 1): (1, ()), (0, -1): (1, ())}, f"unreduced: {un}"
    red = _flat_homology(reduced_assemble(corpus.get("unknot")).homology())
    assert red == {(0, -1): (1, ())}, f"reduced: {red}"
    q2_plus_1 = LaurentPoly({0: 1, 2: 1})
    for name in ("unknot", "trefoil", "figure8"):
        d = corpus.get(name)
        full = _flat_homology(assemble(d).homology())
        kc = reduced_assemble(d)
        red = _flat_homology(kc.homology())
        assert _free_euler(full) == q2_plus_1 * _free_euler(red), \
            f"{name}: chi(unreduced) {_free_euler(full).to_dict()} != " \
            f"(q^2+1) * chi(reduced) {_free_euler(red).to_dict()}"
        even = sorted({hq for hq in kc.bigraded_complex(check=False).gradings
                       if hq[1] % 2 == 0})
        assert not even, f"{name}: reduced generators at even q {even}"
    return ("unreduced Z at (0,1),(0,-1); reduced Z at (0,-1); "
            "chi relation and odd reduced q on unknot, trefoil, figure8")


def check_03_trefoil_oracle() -> str:
    kc = assemble(corpus.get("trefoil"))
    engine = _flat_homology(kc.homology())
    oracle = _dense_homology(kc.bigraded_complex(check=True))
    assert engine == oracle, f"engine {engine} != oracle {oracle}"
    assert any(t for _, t in engine.values()), "expected torsion slot"
    return f"{len(engine)} bigraded slots incl. torsion match dense SNF"


def check_04_pseudo_tables() -> str:
    """Every generator of a diagram with b0 components (free circles
    included) has q = b0 mod 2 -- the parity lemma criterion 07 checks
    on every cube -- so both two-component clasps have even q."""
    results = []
    for name, sigma, expected in (
            ("clasp-plus", 2, [(0, -2), (0, 0), (0, 0), (0, 2)]),
            ("clasp-minus", -2, [(0, 0), (0, 2), (2, 4), (2, 6)])):
        d = corpus.get(name)
        b0 = len(d.components) + d.free_circles
        off = [hq for hq in expected if (hq[1] - b0) % 2]
        assert not off, \
            f"{name}: expected generators {off} break the parity lemma " \
            f"q = b0 (mod 2) with b0 = {b0} components"
        cube = build_cube(d)
        assert len(cube.edges) == 1, f"{name}: {len(cube.edges)} edges"
        edge = cube.edges[0]
        assert edge.kind == NONORIENTABLE_BAND, f"{name}: kind {edge.kind}"
        assert edge.sigma_elem == sigma, f"{name}: sigma {edge.sigma_elem}"
        bc = assemble(d, cube=cube).bigraded_complex(check=True)
        nnz = sum(len(row) for row in bc.out.values())
        assert nnz == 0, f"{name}: differential has {nnz} entries"
        got = sorted(bc.gradings)
        assert got == expected, f"{name}: generators at {got}"
        results.append(name)
    return "both one-band cubes match"


def check_05_t45_rational() -> str:
    table, elapsed = _t45_reduced_table()
    total = sum(table.values())
    assert total == 9, f"total rank {total}"
    assert all(v == 1 for v in table.values()), f"ranks {table}"
    support = {(i, j - i) for (i, j) in table}
    expected = {(0, 11), (2, 13), (4, 13), (6, 13), (3, 14),
                (8, 15), (5, 16), (7, 16), (9, 16)}
    assert support == expected, f"support {sorted(support)}"
    betti = mod4_betti(table).betti
    assert betti == (3, 1, 2, 3), f"mod-4 betti {betti}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"
    return f"rank 9, nine support points, mod4 (3,1,2,3), {elapsed:.0f}s"


def check_06_alexander_deduction() -> str:
    poly = alexander(corpus.get("t45"))
    expected = LaurentPoly({6: 1, 5: -1, 2: 1, 0: -1, -2: 1, -5: -1, -6: 1})
    assert poly == expected, f"Alexander {poly.to_dict()}"
    bound = rank_lower_bound(poly)
    assert bound == 7, f"rank bound {bound}"
    table, _ = _t45_reduced_table()
    report = differential_feasibility(table, 7)
    assert len(report.placements) == 1, \
        f"{len(report.placements)} placements"
    option = report.placements[0]
    assert len(option.differentials) == 1
    diff = option.differentials[0]
    assert (diff.source_row, diff.target_row, diff.rank) == (13, 16, 1), \
        f"placement {diff.source_row}->{diff.target_row} rank {diff.rank}"
    return "Alexander exact, bound 7, unique rank-1 placement 13 -> 16"


def _grading_instances(random_count: int, seed: int = 7021
                       ) -> List[Tuple[PlanarDiagram, object]]:
    rng = random.Random(seed)
    found: List[Tuple[PlanarDiagram, object]] = []
    for name in ("clasp-plus", "clasp-minus", "trefoil", "figure8", "hopf"):
        d = corpus.get(name)
        found.append((d, build_cube(d)))
    count = len(found) + random_count
    attempts = 0
    while len(found) < count and attempts < 40000:
        attempts += 1
        n = rng.randint(1, 4)
        code = _random_pd(rng, n)
        k = rng.randint(0, n)
        marked = sorted(rng.sample(range(n), k))
        try:
            d = PlanarDiagram.build(code, marked=marked)
            cube = build_cube(d)
        except KhError:
            continue
        found.append((d, cube))
    assert len(found) >= count, \
        f"generated only {len(found)} cube instances in {attempts} attempts"
    return found


def _check_grading_lemmas(diagram: PlanarDiagram, cube) -> None:
    verts = list(itertools.product((0, 1), repeat=cube.n_marked))

    def ge(a, b):
        return all(x >= y for x, y in zip(a, b))

    sig = {(v, u): cube.sigma(v, u)
           for v in verts for u in verts if ge(v, u)}
    for (w, v), s_wv in sig.items():
        for u in verts:
            if ge(v, u):
                assert sig[(w, u)] == s_wv + sig[(v, u)], \
                    f"additivity fails at {w},{v},{u}"
    for (v, u), s in sig.items():
        assert s <= 2 * sum(a - b for a, b in zip(v, u)), \
            f"max-is-2 bound fails at {v},{u}: sigma {s}"
        for order in (False, True):
            walk, acc = v, 0
            for c in (reversed(range(len(v))) if order else range(len(v))):
                for _ in range(walk[c] - u[c]):
                    nxt = walk[:c] + (walk[c] - 1,) + walk[c + 1:]
                    acc += cube.edge(walk, nxt).sigma_elem
                    walk = nxt
            assert acc == s, f"telescoping fails along {v}->{u}"

    b0 = len(diagram.components) + diagram.free_circles
    parities = {(cube.vertex(v).p + cube.q_offset(v)) % 2 for v in verts}
    assert parities <= {b0 % 2}, \
        f"q parity {parities} vs component count {b0}"

    for v in verts:
        for c in range(len(v)):
            x = v[:c] + (v[c] + 3,) + v[c + 1:]
            assert cube.sigma(x, v) == 2, f"3-step value at {x}"
            assert cube.q_offset(x) == cube.q_offset(v), f"q period at {x}"
            assert cube.h_offset(x) - cube.h_offset(v) == -2, \
                f"h shift at {x}"

    if cube.is_genuine():
        assert cube.max_self_intersection() == 0
        assert cube.small_self_intersection()
        for v in verts:
            assert cube.h_offset(v) == -sum(v) + cube.n_minus
            assert cube.q_offset(v) == \
                -sum(v) - cube.n_plus + 2 * cube.n_minus


def check_07_grading_lemmas() -> str:
    instances = _grading_instances(100)
    pseudo = 0
    for diagram, cube in instances:
        _check_grading_lemmas(diagram, cube)
        if diagram.retained:
            pseudo += 1
    return (f"{len(instances)} cube instances ({pseudo} with retained "
            f"crossings), zero violations")


def _conservation(pages) -> None:
    for a, b in zip(pages, pages[1:]):
        assert b.total_rank == a.total_rank - 2 * a.total_d_rank, \
            f"page r={a.r}: {a.total_rank} - 2*{a.total_d_rank} " \
            f"!= {b.total_rank}"


def _page_at(pages, r: int):
    """Page E_r; past the listed pages the sequence has stabilized."""
    for page in pages:
        if page.r == r:
            return page
    last = pages[-1]
    assert r > last.r and last.total_d_rank == 0, f"no page r={r}"
    return last


def _rank_h_over_q(bc: BigradedComplex) -> int:
    entries = {(t, s): c for s, row in bc.out.items()
               for t, c in row.items()}
    mat = SparseIntMatrix(bc.n_generators, bc.n_generators, entries)
    return bc.n_generators - 2 * rank_over_q(mat)


def check_08_ss_conservation() -> str:
    t0 = time.perf_counter()
    runs = 0
    for name in _corpus_small():
        bc = assemble(corpus.get(name)).bigraded_complex()
        kh_q = {k: v for k, v in bc.rational_ranks().items() if v}

        pages_h = spectral_sequence(FilteredComplex(bc, (1, 0)))
        _conservation(pages_h)
        assert pages_h[-1].total_rank == _rank_h_over_q(bc)

        pages_q = spectral_sequence(FilteredComplex(bc, (0, 1)))
        _conservation(pages_q)
        assert pages_q[-1].total_rank == _rank_h_over_q(bc)
        for page in pages_q:
            if page.r >= 1:
                assert page.total_d_rank == 0, \
                    f"{name}: weight (0,1) not collapsed at E1 " \
                    f"(d_{page.r} rank {page.total_d_rank})"
        e1 = _page_at(pages_q, 1)
        assert e1.total_rank == _rank_h_over_q(bc)

        for seed in range(50):
            pert = sandbox_perturb(bc, seed=seed)
            pages = spectral_sequence(pert.filtered((1, 0)))
            _conservation(pages)
            assert pages[-1].total_rank == _rank_h_over_q(pert.complex())
            e2 = _page_at(pages, 2)
            e2_tab = {(p, c): r for (p, c), r in e2.groups.items() if r}
            assert e2_tab == kh_q, \
                f"{name} seed {seed}: E2 {e2_tab} != Kh {kh_q}"
            runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    return (f"{runs} sandbox runs + base complexes conserve ranks, "
            f"{elapsed:.1f}s")


def check_09_order_contracts() -> str:
    checked = 0
    for name in _corpus_small():
        bc = assemble(corpus.get(name)).bigraded_complex()
        for seed in range(50):
            pert = sandbox_perturb(bc, seed=seed)
            order = pert.order()
            assert order >= (1, 0), f"{name} seed {seed}: order {order}"
            diff_order = pert.difference_order()
            assert diff_order >= (1, 2), \
                f"{name} seed {seed}: difference order {diff_order}"
            checked += 1
    return f"{checked} sandbox differentials satisfy both bounds"


def check_10_reidemeister() -> str:
    labels = []
    for label, before, after in corpus.reidemeister_pairs():
        ha = _flat_homology(assemble(before).homology())
        hb = _flat_homology(assemble(after).homology())
        assert ha == hb, f"{label}: {ha} != {hb}"
        labels.append(label)
    return f"{len(labels)} move pairs give identical integral tables"


CRITERIA: Tuple[Tuple[int, str, Callable[[], str]], ...] = (
    (1, "square-zero and pure bidegree (+1,0) differential",
     check_01_square_zero_purity),
    (2, "unknot homology placement", check_02_unknot),
    (3, "trefoil matches dense Smith-normal-form oracle",
     check_03_trefoil_oracle),
    (4, "one-band pseudo-diagram tables", check_04_pseudo_tables),
    (5, "(4,5) torus knot reduced rational homology", check_05_t45_rational),
    (6, "Alexander polynomial deduction chain",
     check_06_alexander_deduction),
    (7, "grading lemma property suite", check_07_grading_lemmas),
    (8, "spectral sequence rank conservation", check_08_ss_conservation),
    (9, "perturbed differential order contracts", check_09_order_contracts),
    (10, "Reidemeister move invariance", check_10_reidemeister),
)


def run(stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    failures = 0
    for number, label, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            detail = fn()
            status = "PASS"
        except Exception as exc:  # report every failure, keep going
            detail = f"{type(exc).__name__}: {exc}"
            if len(detail) > 300:
                detail = detail[:297] + "..."
            status = "FAIL"
            failures += 1
        elapsed = time.perf_counter() - t0
        print(f"criterion {number:02d} {status} ({elapsed:.1f}s) "
              f"- {label}: {detail}", file=stream)
    total = len(CRITERIA)
    print(f"{total - failures}/{total} criteria passed", file=stream)
    return 1 if failures else 0
