"""Filtrations, spectral sequences, and the perturbed-differential sandbox."""

import math
from fractions import Fraction

import pytest

import khcube.filtration as filtration_module
import ss_ladder
from khcube import (
    BigradedComplex,
    FilteredComplex,
    KhError,
    NotADifferential,
    NotFiltered,
    OddSelfIntersection,
    OrderViolation,
    PerturbedDifferential,
    PlanarDiagram,
    assemble,
    braid_closure,
    cobordism_order,
    corpus,
    op_order,
    q_order_bound,
    reduced_assemble,
    sandbox_perturb,
    spectral_sequence,
)

TREFOIL = [(2, 5, 1, 4), (4, 1, 3, 6), (6, 3, 5, 2)]


def _trefoil_complex():
    return assemble(PlanarDiagram.build(TREFOIL)).bigraded_complex()


def _conservation_holds(pages):
    for cur, nxt in zip(pages, pages[1:]):
        if nxt.total_rank != cur.total_rank - 2 * cur.total_d_rank:
            return False
    return True


# -- op_order ---------------------------------------------------------------


class TestOpOrder:
    def test_zero_map_is_infinite(self):
        assert op_order({}, [(0, 0), (1, 0)]) == (math.inf, math.inf)
        assert op_order({0: {}, 1: {0: 0}}, [(0, 0), (1, 0)]) == \
            (math.inf, math.inf)

    def test_minima_taken_componentwise(self):
        gradings = [(0, 0), (1, 5), (2, 1)]
        f = {0: {1: 1, 2: 1}}
        # h-minimum from the first entry, q-minimum from the second.
        assert op_order(f, gradings) == (1, 1)

    def test_matrix_column_convention(self):
        # A row map lists the image of each source: gen 0 hits gen 1.
        gradings = [(0, 0), (3, 7)]
        assert op_order({0: {1: 1}}, gradings) == (3, 7)
        assert op_order({1: {0: 1}}, gradings) == (-3, -7)


# -- filtered complexes -------------------------------------------------------


class TestFilteredComplex:
    def test_weight_validation(self):
        c = BigradedComplex([(0, 0)])
        for bad in ((0, 0), (-1, 2), (1, -1)):
            with pytest.raises(NotFiltered):
                FilteredComplex(c, bad)

    def test_differential_must_respect_filtration(self):
        # Bidegree (1, -2) lowers q, so the q-filtration rejects it.
        c = BigradedComplex([(0, 2), (1, 0)], {0: {1: 1}})
        with pytest.raises(NotFiltered):
            FilteredComplex(c, (0, 1))
        FilteredComplex(c, (1, 0))  # h-filtration is fine

    def test_differential_must_raise_the_pair(self):
        # Weight (0, 1) leaves p unchanged on both entries; the first keeps
        # the complementary degree h and the second lowers it.
        c = BigradedComplex([(0, 0), (0, 0)], {0: {1: 1}})
        with pytest.raises(NotFiltered):
            FilteredComplex(c, (0, 1))
        c = BigradedComplex([(0, 0), (-1, 0)], {0: {1: 1}})
        with pytest.raises(NotFiltered):
            FilteredComplex(c, (0, 1))

    def test_levels_and_complementary(self):
        c = BigradedComplex([(0, 1), (2, -1), (1, 1)])
        fc = FilteredComplex(c, (1, 0))
        assert fc.levels == [0, 1, 2]
        assert fc.complementary_degrees == (1, -1, 1)  # q when a != 0
        fq = FilteredComplex(c, (0, 1))
        assert fq.levels == [-1, 1]
        assert fq.complementary_degrees == (0, 2, 1)  # h when a == 0


# -- spectral sequences --------------------------------------------------------


class TestSpectralSequence:
    def test_h_weight_second_page_is_khovanov(self):
        bc = _trefoil_complex()
        pages = spectral_sequence(FilteredComplex(bc, (1, 0)))
        page2 = next(p for p in pages if p.r == 2)
        assert dict(page2.groups) == bc.rational_ranks()
        assert _conservation_holds(pages)

    def test_h_weight_page_zero_is_chain_level(self):
        bc = _trefoil_complex()
        pages = spectral_sequence(FilteredComplex(bc, (1, 0)))
        assert dict(pages[0].groups) == bc.graded_ranks()
        assert pages[0].d_ranks == {}  # d is h-homogeneous of shift one

    def test_q_weight_collapses_at_page_one(self):
        bc = _trefoil_complex()
        pages = spectral_sequence(FilteredComplex(bc, (0, 1)))
        for page in pages:
            if page.r >= 1:
                assert page.total_d_rank == 0
        # Total terminal rank is the rational rank of the homology.
        assert pages[-1].total_rank == 4

    def test_mixed_weight_conserves_and_terminates(self):
        bc = _trefoil_complex()
        pages = spectral_sequence(FilteredComplex(bc, (2, 1)))
        assert _conservation_holds(pages)
        assert pages[-1].total_rank == 4
        assert pages[-1].total_d_rank == 0

    def test_page_views(self):
        bc = _trefoil_complex()
        pages = spectral_sequence(FilteredComplex(bc, (1, 0)))
        page = pages[0]
        assert page.total_rank == bc.n_generators
        assert sum(page.filtration_ranks().values()) == page.total_rank
        assert page.rank_at(0) == page.filtration_ranks().get(0, 0)
        data = page.to_json_dict()
        assert data["r"] == 0
        assert sum(g["rank"] for g in data["groups"]) == page.total_rank


# -- the page-ladder oracle ----------------------------------------------------


def _assert_pages_match(kc, perturbs):
    for perturb in perturbs:
        for weight in ((1, 0), (0, 1), (2, 1), (1, 1)):
            if perturb is None:
                fc = FilteredComplex(kc.bigraded_complex(), weight)
            else:
                fc = sandbox_perturb(kc, seed=perturb).filtered(weight)
            assert (spectral_sequence(fc)
                    == ss_ladder.spectral_sequence(fc)), (perturb, weight)


@pytest.mark.parametrize("name", ["unknot", "hopf", "trefoil", "figure8",
                                  "clasp-minus", "clasp-plus", "pseudo",
                                  "T(2,5)"])
def test_pages_match_ladder_oracle(name):
    """Every page agrees with the Z_r^p ladder: r, groups with the
    complementary split, and d_ranks."""
    if name == "T(2,5)":
        _assert_pages_match(assemble(braid_closure([1] * 5)), [None])
        return
    diagram = (braid_closure([1, 1, 2, -2, 1]).with_marked([0, 1, 4])
               if name == "pseudo" else corpus.get(name))
    for kc in (assemble(diagram), reduced_assemble(diagram)):
        _assert_pages_match(kc, [None, 2, 11, 29])


# -- the terminal-page check ---------------------------------------------------


def _fraction_rank(rows):
    """Rank over Q of dense integer rows, by elimination over Fractions."""
    rows = [[Fraction(v) for v in r] for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        at = next((i for i, r in enumerate(rows) if r[col]), None)
        if at is None:
            continue
        prow = rows.pop(at)
        rank += 1
        for r in rows:
            if r[col]:
                f = r[col] / prow[col]
                for k in range(col, ncols):
                    r[k] -= f * prow[k]
    return rank


def _graded_homology_oracle(fc):
    """dim gr_p H(C) from dense ranks, with the image part taken as

        dim(im d n F^p) = rank d + dim F^p - rank [d | I_{F^p}].
    """
    n = fc.complex.n_generators
    deg = fc.degrees
    d = [[0] * n for _ in range(n)]
    for s, row in fc.complex.out.items():
        for t, c in row.items():
            d[t][s] = c
    rank_d = _fraction_rank(d)

    def cycles_in(p):
        cols = [g for g in range(n) if deg[g] >= p]
        return len(cols) - _fraction_rank(
            [[d[t][g] for g in cols] for t in range(n)])

    def boundaries_in(p):
        cols = [g for g in range(n) if deg[g] >= p]
        stacked = [d[t] + [int(t == g) for g in cols] for t in range(n)]
        return rank_d + len(cols) - _fraction_rank(stacked)

    out = {}
    for p in sorted(set(deg)):
        dim = ((cycles_in(p) - boundaries_in(p))
               - (cycles_in(p + 1) - boundaries_in(p + 1)))
        if dim:
            out[p] = dim
    return out


@pytest.mark.parametrize("perturb", [None, 2, 11, 29])
@pytest.mark.parametrize("weight", [(1, 0), (0, 1), (2, 1)])
@pytest.mark.parametrize("name", ["unknot", "hopf", "trefoil", "figure8",
                                  "clasp-minus", "clasp-plus", "T(2,3)"])
def test_terminal_check_matches_dense_oracle(name, weight, perturb):
    kc = assemble(braid_closure([1, 1, 1]) if name == "T(2,3)"
                  else corpus.get(name))
    if perturb is None:
        fc = FilteredComplex(kc.bigraded_complex(), weight)
    else:
        fc = sandbox_perturb(kc, seed=perturb).filtered(weight)
    _pairs, cycles = filtration_module._reduce(fc)
    assert (filtration_module._graded_homology(fc, cycles)
            == _graded_homology_oracle(fc))


def test_terminal_check_fires_on_a_wrong_rank(monkeypatch):
    rank = filtration_module.rank_over_q
    monkeypatch.setattr(filtration_module, "rank_over_q",
                        lambda m: rank(m) + 1)
    with pytest.raises(KhError, match="terminal page does not match"):
        spectral_sequence(FilteredComplex(_trefoil_complex(), (1, 0)))


@pytest.mark.parametrize("weight", [(1, 0), (0, 1)])
@pytest.mark.parametrize("name", ["trefoil", "figure8"])
def test_terminal_check_one_rank_per_level(monkeypatch, name, weight):
    fc = FilteredComplex(assemble(corpus.get(name)).bigraded_complex(),
                         weight)
    calls = []
    rank = filtration_module.rank_over_q

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(filtration_module, "rank_over_q", counted)
    spectral_sequence(fc)
    assert 0 < len(calls) <= len(fc.levels)


# -- sandbox -------------------------------------------------------------------


class TestSandbox:
    def test_same_seed_is_deterministic(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        a = sandbox_perturb(kc, seed=7)
        b = sandbox_perturb(kc, seed=7)
        assert a.matrix == b.matrix
        assert a.certificate == b.certificate

    def test_seeds_vary(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        matrices = {
            tuple(sorted((s, tuple(sorted(row.items())))
                         for s, row in sandbox_perturb(kc, seed=s)
                         .matrix.items()))
            for s in range(6)
        }
        assert len(matrices) > 1

    def test_order_contracts(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        pert = sandbox_perturb(kc, seed=3)
        assert pert.certificate
        s, t = pert.order()
        assert s >= 1 and t >= 0
        s, t = pert.difference_order()
        assert s >= 1 and t >= 2

    def test_certificate_conjugates_base(self):
        # matrix = g base g^{-1} with g = id + n, checked as
        # matrix g = g base on dense matrices (columns are sources).
        bc = _trefoil_complex()
        pert = sandbox_perturb(bc, seed=4)
        assert pert.certificate
        size = bc.n_generators

        def dense(rows, plus_identity=False):
            m = [[int(plus_identity and i == j) for j in range(size)]
                 for i in range(size)]
            for src, row in rows.items():
                for tgt, c in row.items():
                    m[tgt][src] += c
            return m

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(size))
                     for j in range(size)] for i in range(size)]

        g = dense(pert.certificate, plus_identity=True)
        assert mul(dense(pert.matrix), g) == mul(g, dense(pert.base))

    def test_no_eligible_entry_returns_base(self):
        # The unknot's two generators share h = 0, so n has no entry.
        kc = assemble(corpus.get("unknot"))
        pert = sandbox_perturb(kc, seed=5)
        assert pert.certificate == {}
        assert pert.matrix == pert.base
        assert pert.difference_order() == (math.inf, math.inf)

    def test_conjugation_preserves_homology(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        base_h = {k: (g.free_rank, g.torsion)
                  for k, g in kc.bigraded_complex().homology().items()
                  if not g.is_zero()}
        pert = sandbox_perturb(kc, seed=11)
        assert pert.certificate
        cx = pert.complex()
        pert_h = {k: (g.free_rank, g.torsion)
                  for k, g in cx.homology().items() if not g.is_zero()}
        if None not in pert_h:
            assert pert_h == base_h
        else:
            # Inhomogeneous after conjugation: totals still agree.
            total_free = sum(f for f, _ in base_h.values())
            assert pert_h[None][0] == total_free

    def test_filtered_spectral_sequence_lands_on_homology_rank(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        pert = sandbox_perturb(kc, seed=2)
        assert pert.certificate
        pages = spectral_sequence(pert.filtered((1, 0)))
        assert _conservation_holds(pages)
        assert pages[-1].total_rank == 4

    def test_raw_mode_accepts_base(self):
        bc = _trefoil_complex()
        pert = PerturbedDifferential(matrix=bc.out, base=bc.out,
                                     gradings=bc.gradings)
        assert pert.certificate is None
        assert pert.matrix == bc.out

    def test_raw_mode_rejects_non_square_zero(self):
        gradings = ((0, 0), (1, 0), (2, 0))
        bad = {0: {1: 1}, 1: {2: 1}}
        with pytest.raises(NotADifferential):
            PerturbedDifferential(matrix=bad, base={}, gradings=gradings)

    def test_raw_mode_rejects_order_violation(self):
        # Square-zero but the difference from the (zero) base has q-shift 0.
        low = {0: {1: 1}}
        with pytest.raises(OrderViolation):
            PerturbedDifferential(matrix=low, base={},
                                  gradings=((0, 0), (1, 0)))

    def test_raw_mode_requires_matrix(self):
        # The rows must be a differential on the given generators.
        gradings = ((0, 0), (1, 0))
        for rows in ({0: {2: 1}}, {0: {1: 0}}):
            with pytest.raises(ValueError):
                PerturbedDifferential(matrix=rows, base={}, gradings=gradings)

    def test_unknown_mode(self):
        # The sandbox has one mode and no knobs: source and seed only.
        with pytest.raises(TypeError):
            sandbox_perturb(_trefoil_complex(), seed=0, mode="conjugate")

    def test_source_type_checked(self):
        with pytest.raises(TypeError):
            sandbox_perturb([(0, 0)])

    def test_generator_limit(self, monkeypatch):
        monkeypatch.setattr(filtration_module, "SANDBOX_GENERATOR_LIMIT", 10)
        with pytest.raises(KhError):
            sandbox_perturb(assemble(PlanarDiagram.build(TREFOIL)), seed=0)


# -- cobordism order bounds ------------------------------------------------------


class TestOrderBounds:
    def test_odd_self_intersection_rejected(self):
        with pytest.raises(OddSelfIntersection):
            q_order_bound(0, 3)
        with pytest.raises(OddSelfIntersection):
            cobordism_order(0, -1)

    def test_q_order_bound_values(self):
        assert q_order_bound(-1, 0) == -1
        assert q_order_bound(-1, 8) == 3   # 8 trades for a 4-drop
        assert q_order_bound(-1, -8) == -5
        assert q_order_bound(-1, 0, dim_g=2) == 1
        assert q_order_bound(0, 8, dim_g=5) == 4  # dim_g ignored at 8+

    def test_cobordism_order_values(self):
        assert cobordism_order(-1, 2) == (1, 2)
        assert cobordism_order(-2, 0) == (0, -2)
        assert cobordism_order(0, -4) == (-2, -6)
