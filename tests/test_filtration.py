"""Filtrations, spectral sequences, and the perturbed-differential sandbox."""

import math

import pytest

import khcube.filtration as filtration_module
from khcube import (
    BigradedComplex,
    FilteredComplex,
    KhError,
    NotADifferential,
    NotFiltered,
    OddSelfIntersection,
    OrderViolation,
    PlanarDiagram,
    SparseIntMatrix,
    assemble,
    cobordism_order,
    op_order,
    q_order_bound,
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
        assert op_order(SparseIntMatrix(2, 2), [(0, 0), (1, 0)]) == \
            (math.inf, math.inf)

    def test_minima_taken_componentwise(self):
        gradings = [(0, 0), (1, 5), (2, 1)]
        f = {0: {1: 1, 2: 1}}
        # h-minimum from the first entry, q-minimum from the second.
        assert op_order(f, gradings) == (1, 1)

    def test_matrix_column_convention(self):
        gradings = [(0, 0), (3, 7)]
        m = SparseIntMatrix(2, 2, {(1, 0): 1})  # image of gen 0 hits gen 1
        assert op_order(m, gradings) == (3, 7)

    def test_matrix_size_checked(self):
        with pytest.raises(ValueError):
            op_order(SparseIntMatrix(3, 3), [(0, 0), (1, 0)])

    def test_triples_accepted(self):
        assert op_order([(0, 1, 2)], [(0, 0), (-1, 4)]) == (-1, 4)


# -- filtered complexes -------------------------------------------------------


class TestFilteredComplex:
    def test_weight_validation(self):
        c = BigradedComplex([(0, 0)])
        for bad in ((0, 0), (-1, 2), (1, -1)):
            with pytest.raises(NotFiltered):
                FilteredComplex(c, bad)

    def test_differential_must_respect_filtration(self):
        # Bidegree (1, -2) lowers q, so the q-filtration rejects it.
        c = BigradedComplex([(0, 2), (1, 0)], [(0, 1, 1)])
        with pytest.raises(NotFiltered):
            FilteredComplex(c, (0, 1))
        FilteredComplex(c, (1, 0))  # h-filtration is fine

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
            tuple(sorted(sandbox_perturb(kc, seed=s).matrix.entries.items()))
            for s in range(6)
        }
        assert len(matrices) > 1

    def test_order_contracts(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        pert = sandbox_perturb(kc, seed=3, density=0.4)
        s, t = pert.order()
        assert s >= 1 and t >= 0
        s, t = pert.difference_order()
        assert s >= 1 and t >= 2
        assert pert.certificate is not None

    def test_zero_density_returns_base(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        pert = sandbox_perturb(kc, seed=5, density=0.0)
        assert pert.matrix == pert.base
        assert pert.difference_order() == (math.inf, math.inf)

    def test_conjugation_preserves_homology(self):
        kc = assemble(PlanarDiagram.build(TREFOIL))
        base_h = {k: (g.free_rank, g.torsion)
                  for k, g in kc.bigraded_complex().homology().items()
                  if not g.is_zero()}
        pert = sandbox_perturb(kc, seed=11, density=0.5)
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
        pert = sandbox_perturb(kc, seed=2, density=0.6)
        pages = spectral_sequence(pert.filtered((1, 0)))
        assert _conservation_holds(pages)
        assert pages[-1].total_rank == 4

    def test_raw_mode_accepts_base(self):
        bc = _trefoil_complex()
        base = sandbox_perturb(bc, seed=0, density=0.0).matrix
        pert = sandbox_perturb(bc, mode="raw", raw=base)
        assert pert.certificate is None
        assert pert.matrix == base

    def test_raw_mode_rejects_non_square_zero(self):
        c = BigradedComplex([(0, 0), (1, 0), (2, 0)])
        bad = SparseIntMatrix(3, 3, {(1, 0): 1, (2, 1): 1})
        with pytest.raises(NotADifferential):
            sandbox_perturb(c, mode="raw", raw=bad)

    def test_raw_mode_rejects_order_violation(self):
        # Square-zero but the difference from the (zero) base has q-shift 0.
        c = BigradedComplex([(0, 0), (1, 0)])
        low = SparseIntMatrix(2, 2, {(1, 0): 1})
        with pytest.raises(OrderViolation):
            sandbox_perturb(c, mode="raw", raw=low)

    def test_raw_mode_requires_matrix(self):
        with pytest.raises(ValueError):
            sandbox_perturb(_trefoil_complex(), mode="raw")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sandbox_perturb(_trefoil_complex(), mode="shuffle")

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
