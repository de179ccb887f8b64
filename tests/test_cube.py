"""Cube of resolutions: vertices, edge classification, and gradings.

The circle-count oracle here is a union-find over arc labels (each
resolution joins two arc pairs per crossing), independent of the strand
tracing used by ResolvedState.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khcube import (
    MERGE,
    NONORIENTABLE_BAND,
    MalformedPD,
    SPLIT,
    NotAPseudoDiagram,
    OutOfDomain,
    PlanarDiagram,
    SignInconsistency,
    UNLINK_UNVERIFIED,
    UnknownCrossingId,
    braid_closure,
    build_cube,
    corpus,
)

TREFOIL = [(2, 5, 1, 4), (4, 1, 3, 6), (6, 3, 5, 2)]
CLASP_PLUS = ([(1, 2, 3, 4), (1, 4, 3, 2)], [0])
CLASP_MINUS = ([(1, 2, 3, 4), (2, 1, 4, 3)], [0])


def _circle_oracle(diagram, bits):
    """Count resolution circles by union-find on arc labels."""
    parent = {a: a for a in diagram.arcs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for ci, bit in zip(diagram.marked_order, bits):
        a, b, c, d = diagram.crossings[ci]
        if bit == 0:
            union(a, b), union(c, d)
        else:
            union(a, d), union(b, c)
    roots = {find(a) for a in diagram.arcs}
    return len(roots) + diagram.free_circles


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


# -- vertices ------------------------------------------------------------


class TestVertices:
    def test_counts_and_shape(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        assert len(cube.vertices) == 8
        assert len(cube.edges) == 12  # 3 * 2^2
        assert cube.n_marked == 3
        assert cube.is_genuine()
        assert cube.is_pseudo_diagram()

    def test_vertex_lookup(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        assert cube.vertex((0, 0, 0)).p == 3
        assert cube.vertex((1, 1, 1)).p == 2
        with pytest.raises(UnknownCrossingId):
            cube.vertex((0, 0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_circle_counts_match_union_find_oracle(self, seed, n):
        d = PlanarDiagram.build(_random_code(random.Random(seed), n))
        cube = build_cube(d)  # fully marked: every state is crossingless
        for bits in itertools.product((0, 1), repeat=n):
            assert cube.vertex(bits).p == _circle_oracle(d, bits)

    def test_strict_rejects_retained_knot(self):
        d = PlanarDiagram.build(TREFOIL, marked=[])
        with pytest.raises(NotAPseudoDiagram):
            build_cube(d)

    def test_tolerant_build_keeps_unverified_status(self):
        d = PlanarDiagram.build(TREFOIL, marked=[])
        cube = build_cube(d, trust_pseudo=True)
        assert not cube.is_pseudo_diagram()
        assert cube.vertex(()).unlink_status == UNLINK_UNVERIFIED
        assert build_cube(d, trust_pseudo=True).vertex(()).writhe == -3


# -- edges ---------------------------------------------------------------


class TestEdges:
    def test_genuine_edges_change_circles_by_one(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        for e in cube.edges:
            pv = cube.vertex(e.source).p
            pu = cube.vertex(e.target).p
            assert e.sigma_elem == 0
            if e.kind == MERGE:
                assert pu == pv - 1
            else:
                assert e.kind == SPLIT
                assert pu == pv + 1

    def test_edge_lookup_and_direction(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        e = cube.edge((1, 0, 0), (0, 0, 0))
        assert e.crossing == 0
        assert e.chi == -1
        with pytest.raises(UnknownCrossingId):
            cube.edge((0, 0, 0), (1, 0, 0))  # wrong direction
        with pytest.raises(UnknownCrossingId):
            cube.edge((1, 1, 0), (0, 0, 0))  # not an edge

    @pytest.mark.parametrize("code,marked,expected_sigma",
                             [(*CLASP_PLUS, 2), (*CLASP_MINUS, -2)])
    def test_clasp_band_edges(self, code, marked, expected_sigma):
        cube = build_cube(PlanarDiagram.build(code, marked=marked))
        assert len(cube.edges) == 1
        e = cube.edges[0]
        assert e.kind == NONORIENTABLE_BAND
        assert e.sigma_elem == expected_sigma
        assert cube.is_pseudo_diagram()
        assert not cube.is_genuine()


# -- self-intersection numbers --------------------------------------------


class TestSigma:
    def test_genuine_sigma_vanishes(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        assert cube.max_self_intersection() == 0
        assert cube.small_self_intersection()
        assert cube.sigma((1, 1, 1), (0, 0, 0)) == 0

    def test_three_step_translate(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        # One full 3-step in a single coordinate adds exactly 2.
        assert cube.sigma((3, 0, 0), (0, 0, 0)) == 2
        assert cube.sigma((4, 1, 0), (1, 1, 0)) == 2
        assert cube.sigma((3, 3, 0), (0, 0, 0)) == 4

    def test_entries_two_mod_three_rejected(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        with pytest.raises(OutOfDomain):
            cube.sigma((2, 0, 0), (0, 0, 0))
        with pytest.raises(OutOfDomain):
            cube.sigma((0, 0, 0), (-1, 0, 0))

    def test_length_mismatch_rejected(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        with pytest.raises(OutOfDomain):
            cube.sigma((1, 0), (0, 0))

    def test_band_sigma_and_budget(self):
        cube = build_cube(
            PlanarDiagram.build(CLASP_PLUS[0], marked=CLASP_PLUS[1]))
        assert cube.sigma((1,), (0,)) == 2
        assert cube.max_self_intersection() == 2
        assert cube.small_self_intersection()
        with pytest.raises(SignInconsistency):
            cube.max_self_intersection(pair_budget=2)

    def test_negative_band_max_is_zero(self):
        cube = build_cube(
            PlanarDiagram.build(CLASP_MINUS[0], marked=CLASP_MINUS[1]))
        assert cube.sigma((1,), (0,)) == -2
        assert cube.max_self_intersection() == 0


# -- gradings --------------------------------------------------------------


class TestGradings:
    def test_genuine_offsets_match_closed_formulas(self):
        d = PlanarDiagram.build(TREFOIL)
        cube = build_cube(d)
        n_plus, n_minus = d.n_plus, d.n_minus
        for v in itertools.product((0, 1), repeat=cube.n_marked):
            assert cube.h_offset(v) == -sum(v) + n_minus
            assert cube.q_offset(v) == -sum(v) - n_plus + 2 * n_minus

    @pytest.mark.parametrize("diagram", [
        corpus.get("clasp-minus"),
        corpus.get("clasp-plus"),
        braid_closure([1, 1, 2, -2, 1]).with_marked([0, 1, 4]),
    ], ids=["clasp-minus", "clasp-plus", "retained-pair"])
    def test_mask_offsets_follow_the_sigma_formula(self, diagram):
        # h = -|v| + sigma(v,o)/2 + n-, q - Q = -|v| + 3 sigma(v,o)/2
        # - n+ + 2 n-; the clasps have states of nonzero writhe, where
        # the closed formulas of genuine diagrams do not hold.
        cube = build_cube(diagram)
        for mask in range(len(cube.vertices)):
            v = cube.coords(mask)
            s = cube.sigma(v, cube.o)
            assert s % 2 == 0
            expected = (-sum(v) + s // 2 + cube.n_minus,
                        -sum(v) + 3 * s // 2 - cube.n_plus + 2 * cube.n_minus)
            assert cube.grading_offsets(mask) == expected
            assert (cube.h_offset(v), cube.q_offset(v)) == expected

    def test_oriented_vertex_sits_at_h_zero(self):
        for code in (TREFOIL, [(4, 2, 5, 1), (8, 6, 1, 5),
                               (6, 3, 7, 4), (2, 7, 3, 8)]):
            cube = build_cube(PlanarDiagram.build(code))
            assert cube.h_offset(cube.o) == 0

    def test_differential_direction_raises_h_by_one(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        for e in cube.edges:
            assert cube.h_offset(e.target) == cube.h_offset(e.source) + 1

    def test_q_periodicity_under_three_step(self):
        cube = build_cube(PlanarDiagram.build(TREFOIL))
        for v in itertools.product((0, 1), repeat=cube.n_marked):
            w = (v[0] + 3,) + v[1:]
            assert cube.q_offset(w) == cube.q_offset(v)
            assert cube.h_offset(w) == cube.h_offset(v) - 2


# -- serialization -----------------------------------------------------------


def test_dump_shape():
    cube = build_cube(
        PlanarDiagram.build(CLASP_PLUS[0], marked=CLASP_PLUS[1]))
    data = cube.dump()
    assert set(data) == {"n_plus", "n_minus", "o", "vertices", "edges"}
    assert len(data["vertices"]) == 2
    assert data["edges"][0]["kind"] == NONORIENTABLE_BAND
    assert all(v["unlink_status"] == "verified" for v in data["vertices"])
