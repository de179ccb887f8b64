"""Planar-diagram validation, orientation, resolution, and serialization."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khcube import (
    Crossing,
    InconsistentArcs,
    MalformedPD,
    OrientationDependentWrithe,
    PlanarDiagram,
    UNLINK_UNVERIFIED,
    UNLINK_VERIFIED,
    UnknownCrossingId,
    diagram_from_json,
    parse_pd,
)

TREFOIL = [(2, 5, 1, 4), (4, 1, 3, 6), (6, 3, 5, 2)]
FIGURE8 = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]
CLASP = [(1, 2, 3, 4), (1, 4, 3, 2)]


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


# -- validation ---------------------------------------------------------


class TestValidation:
    def test_arc_used_once_rejected(self):
        with pytest.raises(InconsistentArcs):
            PlanarDiagram.build([(1, 2, 3, 4)])

    def test_arc_used_three_times_rejected(self):
        with pytest.raises(InconsistentArcs):
            PlanarDiagram.build([(1, 1, 1, 2), (2, 3, 3, 4), (4, 5, 5, 6)])

    def test_marked_out_of_range(self):
        with pytest.raises(UnknownCrossingId):
            PlanarDiagram.build(TREFOIL, marked=[3])

    def test_negative_free_circles(self):
        with pytest.raises(MalformedPD):
            PlanarDiagram.build(TREFOIL, free_circles=-1)

    def test_basepoint_must_be_an_arc(self):
        with pytest.raises(MalformedPD):
            PlanarDiagram.build(TREFOIL, basepoint=99)
        with pytest.raises(MalformedPD):
            PlanarDiagram.build([], free_circles=1, basepoint=1)

    def test_empty_diagram_rejected(self):
        with pytest.raises(MalformedPD):
            PlanarDiagram.build([])

    def test_crossing_free_unknot_allowed(self):
        d = PlanarDiagram.build([], free_circles=1)
        assert d.n_components == 1
        assert d.components == ()

    def test_build_marks_all_by_default(self):
        d = PlanarDiagram.build(TREFOIL)
        assert d.marked == frozenset({0, 1, 2})
        assert d.retained == ()
        assert d.with_marked([1]).retained == (0, 2)


# -- parsing ------------------------------------------------------------


class TestParsing:
    def test_round_trip_text(self):
        d = PlanarDiagram.build(TREFOIL)
        assert parse_pd(d.to_pd_text()).crossings == d.crossings

    def test_whitespace_tolerated(self):
        d = parse_pd("PD[ X( 2,5, 1,4 ) , X(4,1,3,6), X(6,3,5,2) ]")
        assert d.n_crossings == 3

    def test_not_pd_grammar(self):
        with pytest.raises(MalformedPD):
            parse_pd("X(1,2,3,4)")

    def test_leftover_tokens_rejected(self):
        with pytest.raises(MalformedPD):
            parse_pd("PD[X(2,5,1,4), X(4,1,3,6), X(6,3,5,2), junk]")

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedPD):
            parse_pd("PD[X(1,2,3)]")

    def test_empty_body_needs_circles(self):
        with pytest.raises(MalformedPD):
            parse_pd("PD[]")
        assert parse_pd("PD[]", free_circles=2).n_components == 2

    def test_json_round_trip(self):
        d = PlanarDiagram.build(CLASP, marked=[0], free_circles=1,
                                basepoint=2)
        back = diagram_from_json(d.to_json_dict())
        assert back == d

    def test_json_string_input(self):
        d = diagram_from_json('{"crossings": [[1,2,3,4],[1,4,3,2]]}')
        assert d.marked == frozenset({0, 1})

    def test_json_missing_crossings(self):
        with pytest.raises(MalformedPD):
            diagram_from_json({"n": [0]})

    def test_json_bad_tuple_width(self):
        with pytest.raises(MalformedPD):
            diagram_from_json({"crossings": [[1, 2, 3]]})

    @pytest.mark.parametrize("data", [
        {"crossings": [[1, 2, 3, 4], [1, 4, 3, 2]], "n": 5},
        {"crossings": [[1, 2, 3, 4], [1, 4, 3, 2]], "circles": "a"},
        {"crossings": [[1, 2, 3, "x"], [1, 4, 3, 2]]},
        '{"crossings": [[1, 2, 3, 4]',
    ], ids=["n", "circles", "crossing", "text"])
    def test_json_field_types_checked(self, data):
        with pytest.raises(MalformedPD):
            diagram_from_json(data)


# Any JSON value; and objects shaped like the schema, whose fields are
# small integers or lists of them (or, now and then, any JSON value).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
_SMALL = st.integers(-2, 9)
_SHAPED = st.fixed_dictionaries({}, optional={
    "crossings": st.lists(st.lists(_SMALL, min_size=3, max_size=5),
                          max_size=4) | _JSON,
    "n": st.lists(_SMALL, max_size=5) | _JSON,
    "circles": _SMALL | _JSON,
    "basepoint": _SMALL | _JSON,
})


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON, _SHAPED, _SHAPED.map(json.dumps), st.text()))
def test_diagram_from_json_returns_a_diagram_or_raises_malformed(data):
    try:
        d = diagram_from_json(data)
    except MalformedPD:
        return
    assert isinstance(d, PlanarDiagram)


@pytest.mark.parametrize("data", [
    {"crossings": [[1, 2, 3, 4]]},
    {"crossings": [[1, 2, 3, 4], [1, 4, 3, 2]], "n": [2]},
    "[" * 100_000,
], ids=["arcs", "crossing-id", "deep-text"])
def test_diagram_from_json_refusals_are_malformed(data):
    with pytest.raises(MalformedPD):
        diagram_from_json(data)


# -- orientation and signs ----------------------------------------------


class TestOrientation:
    def test_trefoil_structure(self):
        d = PlanarDiagram.build(TREFOIL)
        assert d.arcs == (1, 2, 3, 4, 5, 6)
        assert len(d.components) == 1
        assert sorted(d.components[0]) == [1, 2, 3, 4, 5, 6]
        assert d.n_components == 1

    def test_trefoil_signs(self):
        d = PlanarDiagram.build(TREFOIL)
        assert d.signs == (-1, -1, -1)
        assert d.writhe() == -3
        assert d.n_plus == 0 and d.n_minus == 3
        assert d.oriented_assignment() == (1, 1, 1)

    def test_figure8_signs_balance(self):
        d = PlanarDiagram.build(FIGURE8)
        assert d.writhe() == 0
        assert d.n_plus == 2 and d.n_minus == 2

    def test_marked_subset_counts_only_marked(self):
        d = PlanarDiagram.build(TREFOIL, marked=[0])
        assert d.n_plus == 0 and d.n_minus == 1
        assert d.writhe() == -3  # writhe still sums every crossing

    def test_sign_unknown_crossing(self):
        with pytest.raises(UnknownCrossingId):
            PlanarDiagram.build(TREFOIL).sign(3)

    def test_arc_heads_are_endpoints(self):
        d = PlanarDiagram.build(FIGURE8)
        for arc, (ci, slot) in d.arc_heads.items():
            assert d.crossings[ci][slot] == arc

    def test_mirror_negates_signs(self):
        d = PlanarDiagram.build(TREFOIL)
        m = d.mirror()
        assert m.writhe() == 3
        assert sorted(m.signs) == [1, 1, 1]
        assert m.arcs == d.arcs
        assert len(m.components) == 1

    def test_mirror_is_involutive_on_signs(self):
        d = PlanarDiagram.build(FIGURE8)
        mm = d.mirror().mirror()
        assert mm.signs == d.signs
        assert mm.arcs == d.arcs


# -- resolving ----------------------------------------------------------


class TestResolve:
    def test_trefoil_circle_counts(self):
        d = PlanarDiagram.build(TREFOIL)
        # All-1 is the oriented resolution here (all crossings negative):
        # two Seifert circles; the all-0 state has three.
        assert d.resolve((0, 0, 0)).n_circles == 3
        assert d.resolve((1, 1, 1)).n_circles == 2
        assert d.resolve((0, 1, 1)).n_circles == 1

    def test_mapping_assignment(self):
        d = PlanarDiagram.build(TREFOIL)
        assert d.resolve({0: 1, 1: 0, 2: 0}).choices == (1, 0, 0)

    def test_assignment_length_checked(self):
        d = PlanarDiagram.build(TREFOIL)
        with pytest.raises(MalformedPD):
            d.resolve((0, 0))
        with pytest.raises(MalformedPD):
            d.resolve((0, 0, 2))

    def test_circles_partition_arcs(self):
        d = PlanarDiagram.build(FIGURE8)
        state = d.resolve((0, 1, 0, 1))
        all_arcs = sorted(a for c in state.circles for a in c)
        assert all_arcs == list(d.arcs)
        for arc in d.arcs:
            assert arc in state.circles[state.circle_of_arc(arc)]

    def test_basepoint_circle_tracks_basepoint(self):
        d = PlanarDiagram.build(TREFOIL)
        state = d.resolve((0, 0, 0))
        assert state.basepoint_circle == 0
        moved = d.with_basepoint(d.arcs[-1]).resolve((0, 0, 0))
        assert moved.basepoint_circle == \
            moved.circle_of_arc(d.arcs[-1])

    def test_retained_crossings_stay(self):
        d = PlanarDiagram.build(TREFOIL, marked=[1])
        state = d.resolve((1,))
        assert state.retained == (0, 2)


class TestUnlinkChecks:
    def test_no_retained_crossings_verified(self):
        d = PlanarDiagram.build(TREFOIL)
        assert d.resolve((0, 0, 0)).unlink_status() == UNLINK_VERIFIED

    def test_clasp_resolutions_verified(self):
        d = PlanarDiagram.build(CLASP, marked=[0])
        for bit in (0, 1):
            state = d.resolve((bit,))
            assert state.unlink_status() == UNLINK_VERIFIED

    def test_retained_trefoil_not_verified(self):
        d = PlanarDiagram.build(TREFOIL, marked=[])
        assert d.resolve(()).unlink_status() == UNLINK_UNVERIFIED

    def test_writhe_unlink_self_crossings(self):
        d = PlanarDiagram.build(TREFOIL, marked=[])
        assert d.resolve(()).writhe_unlink() == -3

    def test_writhe_unlink_allows_cancelling_clasp(self):
        # The two inter-circle crossings carry opposite signs, so the
        # writhe is orientation independent (this is the lk = 0 clasp).
        d = PlanarDiagram.build(CLASP, marked=[])
        assert d.resolve(()).writhe_unlink() == 0

    def test_writhe_unlink_rejects_linked_circles(self):
        d = PlanarDiagram.build([(1, 2, 3, 4), (2, 1, 4, 3)], marked=[])
        with pytest.raises(OrientationDependentWrithe):
            d.resolve(()).writhe_unlink()


# -- randomized structure -------------------------------------------------


class TestRandomCodes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_components_partition_arcs(self, seed, n):
        d = PlanarDiagram.build(_random_code(random.Random(seed), n))
        seen = sorted(a for comp in d.components for a in comp)
        assert seen == list(d.arcs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_mirror_negates_writhe(self, seed, n):
        d = PlanarDiagram.build(_random_code(random.Random(seed), n))
        m = d.mirror()
        assert len(m.components) == len(d.components)
        if len(d.components) == 1 and not d.free_circles:
            # Knot signs do not depend on the traced orientation, so
            # mirroring negates them exactly and twice is the identity.
            assert m.writhe() == -d.writhe()
            assert m.mirror().signs == d.signs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_resolutions_partition_arcs(self, seed, n):
        rng = random.Random(seed)
        d = PlanarDiagram.build(_random_code(rng, n))
        bits = tuple(rng.randint(0, 1) for _ in d.marked_order)
        state = d.resolve(bits)
        seen = sorted(a for c in state.circles for a in c)
        assert seen == list(d.arcs)


def test_crossing_accessors():
    x = Crossing(2, 5, 1, 4)
    assert x.under == (2, 1)
    assert x.over == (5, 4)
    assert repr(x) == "X(2,5,1,4)"
