"""The local scan (khcube.local) against the cube engine.

The oracle is the materialised cube complex, ``bigraded_complex()``,
whose homology shares no code with the scan beyond the final SNF.
Tables are compared in full, torsion included, reduced and unreduced.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khcube import (MalformedPD, NotADifferential, PlanarDiagram, assemble,
                    braid_closure, corpus, khovanov, local, reduced_assemble)


def _flat(groups):
    return {k: (g.free_rank, g.torsion)
            for k, g in groups.items() if not g.is_zero()}


def _assert_matches_cube(d):
    """Scan and cube tables agree, reduced and unreduced, and the scan
    builds no cube."""
    for build in (assemble, reduced_assemble):
        kc = build(d)
        scanned = _flat(kc.homology())
        assert "cube" not in kc.__dict__
        assert scanned == _flat(kc.bigraded_complex(limit=None).homology())


def _random_code(rng, n, first_label=1):
    """A random planar PD code with n crossings."""
    labels = [a for a in range(first_label, first_label + 2 * n)
              for _ in range(2)]
    while True:
        rng.shuffle(labels)
        code = [tuple(labels[4 * k: 4 * k + 4]) for k in range(n)]
        try:
            PlanarDiagram.build(code)
        except MalformedPD:
            continue
        return code


@pytest.mark.parametrize("name", [n for n in corpus.names()
                                  if n != "t45" and not
                                  corpus.get(n).retained])
def test_corpus_matches_cube(name):
    _assert_matches_cube(corpus.get(name))


@pytest.mark.parametrize("label,before,after", corpus.reidemeister_pairs(),
                         ids=[p[0] for p in corpus.reidemeister_pairs()])
def test_reidemeister_pairs_match_cube(label, before, after):
    _assert_matches_cube(before)
    _assert_matches_cube(after)


@st.composite
def _braids(draw, max_strands=4, max_letters=9):
    k = draw(st.integers(2, max_strands))
    letter = st.builds(lambda i, s: i * s, st.integers(1, k - 1),
                       st.sampled_from((1, -1)))
    return draw(st.lists(letter, max_size=max_letters)), k


@settings(max_examples=40, deadline=None)
@given(_braids())
def test_braid_closures_match_cube(braid):
    word, k = braid
    _assert_matches_cube(braid_closure(word, strands=k))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6), st.integers(0, 2),
       st.integers(0, 2))
def test_planar_codes_match_cube_at_every_basepoint(seed, n, split, free):
    """Random planar codes of 1-6 crossings, some with a split piece of
    up to two of them, some with free circles; kinks occur in most.
    Every arc takes a turn as the basepoint, which is also the arc the
    scan cuts open."""
    rng = random.Random(seed)
    code = _random_code(rng, n)
    split = min(split, 6 - n)
    if split:
        code += _random_code(rng, split, first_label=2 * n + 1)
    d = PlanarDiagram.build(code, free_circles=free)
    unreduced = _flat(assemble(d).bigraded_complex(limit=None).homology())
    for arc in d.arcs:
        at = d.with_basepoint(arc)
        assert _flat(assemble(at).homology()) == unreduced
        kc = reduced_assemble(at)
        assert _flat(kc.homology()) == \
            _flat(kc.bigraded_complex(limit=None).homology())


# Words whose scan neck-cuts a genus-one piece, where the 2^g of the
# closed form matters; random words seldom reach one.
@pytest.mark.parametrize("word,k", [([1, 2, -2, 1, 2, 1, 2, -2], 3),
                                    ([2, 1, 3, 2, 1, -3, 2], 4)])
def test_braids_with_a_torus_piece_match_cube(word, k):
    _assert_matches_cube(braid_closure(word, strands=k))


# (first-factor disk mask, second-factor disk mask, source caps, target
# caps, genus, boundary cycle bits), the dots on the first factor, and
# the neck-cut value.
@pytest.mark.parametrize("piece,dots,value", [
    ((0, 0, 0, 0, 0, ()), 0, {}),                   # sphere
    ((1, 0, 0, 0, 0, ()), 1, {0: 1}),               # dotted sphere
    ((0, 0, 0, 0, 1, ()), 0, {0: 2}),               # torus
    ((1, 0, 0, 0, 1, ()), 1, {}),                   # dotted torus
    ((0, 0, 0, 0, 0, (1,)), 0, {0: 1}),             # disk
    ((1, 0, 0, 0, 0, (1,)), 1, {1: 1}),             # dotted disk
    ((3, 0, 0, 0, 0, (1,)), 3, {}),                 # two dots
    ((0, 0, 0, 0, 0, (1, 2)), 0, {1: 1, 2: 1}),     # neck cutting
    ((1, 0, 0, 0, 0, (1, 2)), 1, {3: 1}),           # dotted annulus
    ((0, 0, 0, 0, 1, (1,)), 0, {1: 2}),             # punctured torus
    ((0, 0, 0, 0, 2, (1,)), 0, {}),                 # genus two
], ids=["sphere", "dotted-sphere", "torus", "dotted-torus", "disk",
        "dotted-disk", "two-dots", "annulus", "dotted-annulus",
        "punctured-torus", "genus-two"])
def test_neck_cutting_closed_form(piece, dots, value):
    assert local._evaluate((piece,), dots, 0) == value


def test_crossingless_diagrams():
    for free in (1, 2, 3):
        _assert_matches_cube(PlanarDiagram.build([], free_circles=free))


# Unreduced integral homology of the (4,5) torus closure, as printed by
# `kh homology t45` from the cube engine (26.8 s there).
T45_Z = {
    (0, 11): (1, ()), (0, 13): (1, ()), (2, 15): (1, ()), (3, 17): (0, (2,)),
    (3, 19): (1, ()), (4, 17): (1, ()), (4, 19): (1, ()), (5, 21): (1, ()),
    (5, 23): (1, ()), (6, 19): (1, ()), (6, 21): (1, ()), (7, 21): (0, (2,)),
    (7, 23): (1, (2,)), (7, 25): (1, ()), (8, 23): (1, ()), (9, 25): (0, (4,)),
    (9, 27): (1, ()), (10, 27): (0, (2,)), (10, 29): (0, (2,)),
}


def _no_cube(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cube engine ran")
    monkeypatch.setattr(khovanov, "build_cube", refuse)


def test_t45_unreduced_integral_table(monkeypatch):
    _no_cube(monkeypatch)
    assert _flat(assemble(corpus.get("t45")).homology()) == T45_Z


def test_t45_reduced_ranks_build_no_cube(monkeypatch):
    _no_cube(monkeypatch)
    ranks = reduced_assemble(corpus.get("t45")).rational_ranks()
    assert sum(ranks.values()) == 9


def test_cube_is_built_on_first_use():
    kc = assemble(corpus.get("trefoil"))
    assert "cube" not in kc.__dict__
    assert kc.total_generators == 30
    assert "cube" in kc.__dict__
    pseudo = assemble(corpus.get("clasp-plus"))
    assert "cube" in pseudo.__dict__


# -- d o d = 0 inside the scan ------------------------------------------------


@pytest.mark.parametrize("name", ["trefoil", "figure8", "hopf"])
def test_dropped_koszul_sign_raises(monkeypatch, name):
    """Without (-1)^h on the saddle term the squares of the tensor
    product commute, and the check after the second crossing fails."""
    monkeypatch.setattr(local, "_koszul", lambda h: 1)
    with pytest.raises(NotADifferential, match=r"after gluing crossing \d"):
        assemble(corpus.get(name)).homology()


# -- Reidemeister fuzzing by Markov and braid moves --------------------------


def _move(rng, word, k):
    """One Markov or braid move on a braid word with k strands (the
    word unchanged when the move has no place to act)."""
    kind = rng.randrange(5)
    if kind == 0 and word:                      # conjugation
        return word[1:] + word[:1], k
    if kind == 1:                               # +-stabilisation
        return word + [rng.choice((1, -1)) * k], k + 1
    if kind == 2:                               # insert s s^-1
        at = rng.randint(0, len(word))
        x = rng.choice((1, -1)) * rng.randint(1, k - 1)
        return word[:at] + [x, -x] + word[at:], k
    if kind == 3:                               # far commutation
        spots = [i for i in range(len(word) - 1)
                 if abs(abs(word[i]) - abs(word[i + 1])) >= 2]
        if spots:
            i = rng.choice(spots)
            return word[:i] + [word[i + 1], word[i]] + word[i + 2:], k
    if kind == 4:                               # s_i s_i+1 s_i = s_i+1 s_i s_i+1
        spots = [i for i in range(len(word) - 2)
                 if word[i] == word[i + 2]
                 and abs(abs(word[i]) - abs(word[i + 1])) == 1
                 and (word[i] > 0) == (word[i + 1] > 0)]
        if spots:
            i = rng.choice(spots)
            a, b = word[i], word[i + 1]
            return word[:i] + [b, a, b] + word[i + 3:], k
    return word, k


def _upward_table(word, k, reduced=False):
    """Integral table of the closure with every strand oriented upward.

    The engine orients each component by its own traversal rule, which
    can run against the braid; only the global shift (n-, -n+ + 2n-)
    depends on orientation, and upward a letter +i is a negative
    crossing, so the table is shifted to the upward shift."""
    d = braid_closure(word, strands=k)
    kc = (reduced_assemble if reduced else assemble)(d)
    up_minus = sum(1 for x in word if x > 0)
    up_plus = len(word) - up_minus
    dh = up_minus - d.n_minus
    dq = (2 * up_minus - up_plus) - (2 * d.n_minus - d.n_plus)
    return {(h + dh, q + dq): g for (h, q), g in _flat(kc.homology()).items()}


@settings(max_examples=100, deadline=None)
@given(_braids(max_letters=7), st.integers(0, 2 ** 32), st.integers(1, 5))
def test_markov_and_braid_moves_keep_tables(braid, seed, n_moves):
    word, k = braid
    rng = random.Random(seed)
    moved, k2 = word, k
    for _ in range(n_moves):
        moved, k2 = _move(rng, moved, k2)
    assert _upward_table(moved, k2) == _upward_table(word, k)
    # A link's reduced table depends on the component of the basepoint.
    if braid_closure(word, strands=k).n_components == 1:
        assert _upward_table(moved, k2, True) == _upward_table(word, k, True)


def test_scan_refuses_retained_crossings():
    with pytest.raises(ValueError, match="retained"):
        local.scan_complex(corpus.get("clasp-plus"), reduced=False)
