"""Khovanov homology: known tables, Euler characteristic, mirrors.

The Euler-characteristic oracle is a Kauffman-style state sum with its
own union-find circle counter and dict-based polynomial arithmetic; it
never touches the chain complex code.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khcube import (
    KhError,
    MalformedPD,
    PlanarDiagram,
    assemble,
    braid_closure,
    reduced_assemble,
)

TREFOIL = [(2, 5, 1, 4), (4, 1, 3, 6), (6, 3, 5, 2)]
FIGURE8 = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]

TREFOIL_TABLE = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 7): (0, (2,)),
    (3, 9): (1, ()),
}

FIGURE8_TABLE = {
    (-2, -5): (1, ()),
    (-1, -3): (0, (2,)),
    (-1, -1): (1, ()),
    (0, -1): (1, ()),
    (0, 1): (1, ()),
    (1, 1): (1, ()),
    (2, 3): (0, (2,)),
    (2, 5): (1, ()),
}


def _flat(kc):
    return {k: (g.free_rank, g.torsion)
            for k, g in kc.homology().items() if not g.is_zero()}


def _random_code(rng, n):
    """A random planar PD code: labels are reshuffled until
    PlanarDiagram.build accepts the code."""
    labels = [a for a in range(1, 2 * n + 1) for _ in range(2)]
    while True:
        rng.shuffle(labels)
        code = [tuple(labels[4 * k: 4 * k + 4]) for k in range(n)]
        try:
            PlanarDiagram.build(code)
        except MalformedPD:
            continue
        return code


def _state_sum_euler(d):
    """Graded Euler characteristic by brute-force state enumeration."""
    order = d.marked_order
    acc = {}
    for bits in itertools.product((0, 1), repeat=len(order)):
        parent = {a: a for a in d.arcs}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ci, bit in zip(order, bits):
            a, b, c, e = d.crossings[ci]
            pairs = ((a, b), (c, e)) if bit == 0 else ((a, e), (b, c))
            for x, y in pairs:
                parent[find(x)] = find(y)
        p = len({find(a) for a in d.arcs}) + d.free_circles
        h = -sum(bits) + d.n_minus
        qoff = -sum(bits) - d.n_plus + 2 * d.n_minus
        sign = -1 if h % 2 else 1
        for k in range(p + 1):
            e = qoff + 2 * k - p
            acc[e] = acc.get(e, 0) + sign * math.comb(p, k)
    return {e: c for e, c in acc.items() if c}


def _homology_euler(kc):
    acc = {}
    for (h, q), g in kc.homology().items():
        if g.free_rank:
            sign = -1 if h % 2 else 1
            acc[q] = acc.get(q, 0) + sign * g.free_rank
    return {e: c for e, c in acc.items() if c}


def _mirror_expectation(table):
    """Free part reflects (h, q) -> (-h, -q); torsion lands at (1-h, -q)."""
    out = {}
    for (h, q), (free, tors) in table.items():
        if free:
            key = (-h, -q)
            f, t = out.get(key, (0, ()))
            out[key] = (f + free, t)
        if tors:
            key = (1 - h, -q)
            f, t = out.get(key, (0, ()))
            out[key] = (f, tors)
    return out


# -- known tables ---------------------------------------------------------


class TestKnownTables:
    def test_trefoil_integral(self):
        assert _flat(assemble(PlanarDiagram.build(TREFOIL))) == TREFOIL_TABLE

    def test_figure8_integral(self):
        assert _flat(assemble(PlanarDiagram.build(FIGURE8))) == FIGURE8_TABLE

    def test_mirror_trefoil(self):
        table = _flat(assemble(PlanarDiagram.build(TREFOIL).mirror()))
        assert table == _mirror_expectation(TREFOIL_TABLE)
        assert table == {
            (-3, -9): (1, ()), (-2, -7): (0, (2,)), (-2, -5): (1, ()),
            (0, -3): (1, ()), (0, -1): (1, ()),
        }

    def test_figure8_is_amphichiral(self):
        d = PlanarDiagram.build(FIGURE8)
        assert _flat(assemble(d.mirror())) == _flat(assemble(d))
        assert _mirror_expectation(FIGURE8_TABLE) == FIGURE8_TABLE

    def test_unknot_with_kinks(self):
        # One positive kink: still the unknot table.
        kinked = assemble(braid_closure([1, 1, 1, 2]))
        plain = assemble(braid_closure([1, 1, 1]))
        assert _flat(kinked) == _flat(plain)

    def test_reduced_trefoil(self):
        table = _flat(reduced_assemble(PlanarDiagram.build(TREFOIL)))
        assert table == {(0, 1): (1, ()), (2, 5): (1, ()), (3, 7): (1, ())}

    def test_reduced_ignores_basepoint_choice(self):
        d = PlanarDiagram.build(TREFOIL)
        tables = {
            arc: tuple(sorted(_flat(reduced_assemble(d, basepoint=arc)).items()))
            for arc in d.arcs
        }
        assert len(set(tables.values())) == 1

    def test_reduced_knot_lives_in_odd_q(self):
        table = _flat(reduced_assemble(PlanarDiagram.build(FIGURE8)))
        assert table  # nonempty
        assert all(q % 2 == 1 for (_, q) in table)

    def test_rational_ranks_match_free_parts(self):
        kc = assemble(PlanarDiagram.build(FIGURE8))
        expected = {k: f for k, (f, _) in FIGURE8_TABLE.items() if f}
        assert kc.rational_ranks() == expected


# -- Euler characteristic ---------------------------------------------------


class TestEulerCharacteristic:
    @pytest.mark.parametrize("code", [TREFOIL, FIGURE8])
    def test_chain_level_matches_state_sum(self, code):
        d = PlanarDiagram.build(code)
        assert assemble(d).euler_poly().to_dict() == _state_sum_euler(d)

    @pytest.mark.parametrize("code", [TREFOIL, FIGURE8])
    def test_homology_level_matches_state_sum(self, code):
        d = PlanarDiagram.build(code)
        assert _homology_euler(assemble(d)) == _state_sum_euler(d)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_state_sum_on_random_codes(self, seed, n):
        kc = assemble(PlanarDiagram.build(_random_code(random.Random(seed),
                                                       n)))
        d = kc.cube.diagram
        assert kc.euler_poly().to_dict() == _state_sum_euler(d)
        assert _homology_euler(kc) == _state_sum_euler(d)


# -- structural properties ----------------------------------------------------


class TestStructure:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_differential_squares_to_zero(self, seed, n):
        kc = assemble(PlanarDiagram.build(_random_code(random.Random(seed),
                                                       n)))
        bc = kc.bigraded_complex(check=True)  # raises on d^2 != 0
        assert bc.differential_bidegrees() <= {(1, 0)}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mirror_table_relation_on_random_knots(self, seed):
        rng = random.Random(seed)
        d = PlanarDiagram.build(_random_code(rng, rng.randint(2, 4)))
        if len(d.components) != 1:
            return  # relation asserted for knots only
        table = _flat(assemble(d))
        assert _flat(assemble(d.mirror())) == _mirror_expectation(table)

    def test_total_generators(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        assert kc.total_generators == 30  # sum of 2^circles over vertices
        red = reduced_assemble(PlanarDiagram.build(TREFOIL))
        assert red.total_generators == 15

    def test_materialization_limit(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        with pytest.raises(KhError):
            kc.bigraded_complex(limit=10)
        assert kc.bigraded_complex(limit=None).n_generators == 30

    def test_streaming_matches_materialized(self):
        kc = assemble(PlanarDiagram.build(FIGURE8))
        streamed = _flat(kc)
        materialized = {
            k: (g.free_rank, g.torsion)
            for k, g in kc.bigraded_complex().homology().items()
            if not g.is_zero()
        }
        assert streamed == materialized


# -- one verification pass per slice ---------------------------------------


@pytest.mark.parametrize("diagram", [
    PlanarDiagram.build(TREFOIL),
    # Trefoil word with a cancelling pair left retained: a pseudo-diagram.
    braid_closure([1, 1, 2, -2, 1]).with_marked([0, 1, 4]),
], ids=["trefoil", "retained-pair"])
@pytest.mark.parametrize("method", ["homology", "rational_ranks"])
def test_square_zero_checked_once_per_slice(monkeypatch, diagram, method):
    from khcube.chain import BigradedComplex

    kc = assemble(diagram)
    calls = []
    check = BigradedComplex.check_square_zero

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(BigradedComplex, "check_square_zero", counted)
    getattr(kc, method)()
    if diagram.retained:
        assert len(calls) == len(kc._q_values())
    else:
        # The local scan checks d o d = 0 itself after every crossing;
        # its final complex is checked once more, as one piece.
        assert len(calls) == 1


# -- edge-map oracle ----------------------------------------------------------


def _oracle_complex(d, reduced):
    """Gradings and differential of the whole complex, rebuilt from the
    circles of each resolved state as arc sets.

    Numbering follows the documented contract: vertices in mask order
    (bit i is coordinate i of marked_order), then label popcount, then
    combination order of the circle positions; the basepoint circle is
    left out when reduced.  Circles are matched across an edge as arc
    sets.  The gradings are the closed formulas, valid where every state
    has writhe 0 (genuine diagrams and retained cancelling pairs).
    """
    n = len(d.marked_order)
    bp_arc = d.basepoint
    if bp_arc is None:
        bp_arc = min(d.arcs, default=None)
    circles, ids, gradings = [], {}, []
    for mask in range(1 << n):
        bits = [(mask >> i) & 1 for i in range(n)]
        cs = list(d.resolve(bits).circles)
        cs += [frozenset({("free", k)}) for k in range(d.free_circles)]
        circles.append(cs)
        bp = next((k for k, c in enumerate(cs) if bp_arc in c),
                  len(cs) - d.free_circles)
        free = [k for k in range(len(cs)) if not (reduced and k == bp)]
        for pc in range(len(free) + 1):
            q = -sum(bits) - d.n_plus + 2 * d.n_minus + 2 * pc - len(cs)
            for plus in itertools.combinations(free, pc):
                ids[(mask, frozenset(cs[k] for k in plus))] = len(gradings)
                gradings.append((-sum(bits) + d.n_minus, q))
    out = {}
    for (mask, plus), src in ids.items():
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            target = mask & ~(1 << i)
            cv, cu = circles[mask], circles[target]
            if len(cv) == len(cu):
                continue  # band edge: zero map
            sign = -1 if bin(mask & ((1 << i) - 1)).count("1") % 2 else 1
            fused_v = [c for c in cv if c not in cu]
            fused_u = [c for c in cu if c not in cv]
            kept = frozenset(c for c in plus if c in cu)
            n_plus = sum(c in plus for c in fused_v)
            if len(fused_v) == 2:  # merge
                images = [kept | {fused_u[0]}] if n_plus == 2 else \
                    [kept] if n_plus == 1 else []
            else:  # split
                images = [kept | {c} for c in fused_u] if n_plus else [kept]
            row = out.setdefault(src, {})
            for image in images:
                tgt = ids[(target, image)]
                row[tgt] = row.get(tgt, 0) + sign
                if not row[tgt]:
                    del row[tgt]
            if not row:
                del out[src]
    return tuple(gradings), out


@pytest.mark.parametrize("reduced", [False, True],
                         ids=["unreduced", "reduced"])
@pytest.mark.parametrize("diagram", [
    PlanarDiagram.build(TREFOIL),
    PlanarDiagram.build(FIGURE8),
    braid_closure([1, 1, 2, -2, 1]).with_marked([0, 1, 4]),
    PlanarDiagram.build(TREFOIL, free_circles=1),
], ids=["trefoil", "figure8", "retained-pair", "free-circle"])
def test_edge_maps_match_arc_set_oracle(diagram, reduced):
    kc = (reduced_assemble if reduced else assemble)(diagram)
    _assert_matches_oracle(kc.bigraded_complex(check=False), diagram,
                           reduced)


def _assert_matches_oracle(bc, diagram, reduced):
    """Equal gradings and rows, each row's entries in the oracle's
    order (coordinate, then image): the order is part of the contract."""
    gradings, out = _oracle_complex(diagram, reduced)
    assert bc.gradings == gradings
    assert {s: list(row.items()) for s, row in bc.out.items()} == \
        {s: list(row.items()) for s, row in out.items()}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 1),
       st.booleans())
def test_edge_maps_match_arc_set_oracle_on_random_codes(seed, n, free,
                                                         reduced):
    d = PlanarDiagram.build(_random_code(random.Random(seed), n),
                            free_circles=free)
    kc = (reduced_assemble if reduced else assemble)(d)
    _assert_matches_oracle(kc.bigraded_complex(check=False), d, reduced)
