"""Sparse integer linear algebra and bigraded chain complexes.

The Smith-normal-form oracle used here is the determinantal-divisor
characterization: d_k = gcd(k-minors) / gcd((k-1)-minors).  It shares no
code with the elimination under test.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khcube import (
    BigradedComplex,
    HomologyGroup,
    NotADifferential,
    SparseIntMatrix,
    assemble,
    braid_closure,
    corpus,
    rank_over_q,
    smith_normal_form,
)


# -- oracles ----------------------------------------------------------


def _det(rows):
    """Integer determinant by Laplace expansion (small matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(sub)
    return total


def _divisors_by_minors(dense):
    """Smith divisors via gcds of k x k minors."""
    nr, nc = len(dense), len(dense[0]) if dense else 0
    prev_gcd = 1
    divisors = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ris in itertools.combinations(range(nr), k):
            for cis in itertools.combinations(range(nc), k):
                sub = [[dense[i][j] for j in cis] for i in ris]
                g = math.gcd(g, _det(sub))
        if g == 0:
            break
        divisors.append(g // prev_gcd)
        prev_gcd = g
    return tuple(divisors)


def _dense_rank_fraction(dense):
    """Rational rank by Gaussian elimination over fractions."""
    from fractions import Fraction

    rows = [[Fraction(v) for v in r] for r in dense if any(r)]
    rank = 0
    col = 0
    ncols = len(dense[0]) if dense else 0
    while rows and col < ncols:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        prow = rows.pop(pivot)
        rank += 1
        rows = [
            [rv - (r[col] / prow[col]) * pv for rv, pv in zip(r, prow)]
            for r in rows
            if any(rv - (r[col] / prow[col]) * pv
                   for rv, pv in zip(r, prow))
        ]
        col += 1
    return rank


_dense_matrices = st.integers(0, 4).flatmap(
    lambda nr: st.integers(0 if nr == 0 else 1, 4).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


@st.composite
def _sparse_matrices(draw):
    """Sparse rectangular matrices up to 10 x 12, entries in -6..6.

    About half the entries are zero.  Up to three rows are then replaced
    by a zero row or by a copy or negation of another row."""
    nr = draw(st.integers(0, 10))
    nc = draw(st.integers(0 if nr == 0 else 1, 12))
    entry = st.just(0) | st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nr:
        for dst, src, sign in draw(st.lists(
                st.tuples(st.integers(0, nr - 1), st.integers(-1, nr - 1),
                          st.sampled_from((1, -1))), max_size=3)):
            rows[dst] = ([0] * nc if src < 0
                         else [sign * v for v in rows[src]])
    return rows

# -- SparseIntMatrix ---------------------------------------------------


class TestSparseIntMatrix:
    def test_round_trip_dense(self):
        dense = [[1, 0, -3], [0, 0, 7]]
        m = SparseIntMatrix.from_dense(dense)
        assert m.nrows == 2 and m.ncols == 3
        assert m.to_dense() == dense
        assert m.nnz() == 3

    def test_zero_entries_dropped(self):
        m = SparseIntMatrix(2, 2, {(0, 0): 0, (1, 1): 5})
        assert m.entries == {(1, 1): 5}

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            SparseIntMatrix(2, 2, {(2, 0): 1})
        with pytest.raises(ValueError):
            SparseIntMatrix(2, 2, {(0, -1): 1})

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SparseIntMatrix(-1, 2)

    def test_transpose(self):
        m = SparseIntMatrix.from_dense([[1, 2], [3, 4], [5, 6]])
        t = m.transpose()
        assert t.to_dense() == [[1, 3, 5], [2, 4, 6]]
        assert t.transpose() == m

    def test_matmul_matches_dense_arithmetic(self):
        a = SparseIntMatrix.from_dense([[1, 2, 0], [0, -1, 3]])
        b = SparseIntMatrix.from_dense([[2, 0], [1, 1], [0, 4]])
        prod = (a @ b).to_dense()
        assert prod == [[4, 2], [-1, 11]]

    def test_matmul_dimension_mismatch(self):
        a = SparseIntMatrix(2, 3)
        b = SparseIntMatrix(2, 3)
        with pytest.raises(ValueError):
            a @ b


# -- Smith normal form -------------------------------------------------


class TestSmithNormalForm:
    @settings(max_examples=120, deadline=None)
    @given(_dense_matrices)
    def test_divisors_match_minor_gcd_oracle(self, dense):
        m = SparseIntMatrix.from_dense(dense)
        res = smith_normal_form(m)
        assert res.divisors == _divisors_by_minors(dense)
        assert res.rank == len(res.divisors)

    @settings(max_examples=120, deadline=None)
    @given(_dense_matrices)
    def test_divisor_chain(self, dense):
        res = smith_normal_form(SparseIntMatrix.from_dense(dense))
        assert all(d > 0 for d in res.divisors)
        for a, b in zip(res.divisors, res.divisors[1:]):
            assert b % a == 0

    @settings(max_examples=100, deadline=None)
    @given(_dense_matrices)
    def test_rank_over_q_agrees(self, dense):
        m = SparseIntMatrix.from_dense(dense)
        assert rank_over_q(m) == smith_normal_form(m).rank
        assert rank_over_q(m) == _dense_rank_fraction(dense)

    @settings(max_examples=200, deadline=None)
    @given(_sparse_matrices())
    def test_rank_over_q_agrees_on_sparse_rectangles(self, dense):
        m = SparseIntMatrix.from_dense(dense)
        assert (rank_over_q(m) == smith_normal_form(m).rank
                == _dense_rank_fraction(dense))

    def test_known_small_case(self):
        # diag(2, 6) has divisors (2, 6); the gcd/lcm pair survives a
        # change of basis.
        m = SparseIntMatrix.from_dense([[2, 0], [0, 6]])
        assert smith_normal_form(m).divisors == (2, 6)
        mixed = SparseIntMatrix.from_dense([[2, 4], [4, 14]])
        assert smith_normal_form(mixed).divisors == (2, 6)

    def test_empty_and_zero_matrices(self):
        assert smith_normal_form(SparseIntMatrix(0, 0)).divisors == ()
        assert smith_normal_form(SparseIntMatrix(3, 2)).rank == 0

    def test_nontrivial_divisors_strips_units(self):
        m = SparseIntMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 4]])
        res = smith_normal_form(m)
        assert res.divisors == (1, 1, 4)
        assert res.nontrivial_divisors() == (4,)


# -- HomologyGroup ------------------------------------------------------


class TestHomologyGroup:
    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            HomologyGroup(0, (4, 6))

    def test_prime_power_decomposition(self):
        g = HomologyGroup(1, (2, 12))
        assert g.prime_power_decomposition() == (2, 3, 4)

    def test_repr_and_is_zero(self):
        assert repr(HomologyGroup(0)) == "0"
        assert HomologyGroup(0).is_zero()
        assert repr(HomologyGroup(1, (2,))) == "Z + Z/2"
        assert repr(HomologyGroup(3)) == "Z^3"
        assert not HomologyGroup(0, (5,)).is_zero()


# -- BigradedComplex ----------------------------------------------------


def _flat(groups):
    return {k: (g.free_rank, g.torsion)
            for k, g in groups.items() if not g.is_zero()}


class TestBigradedComplex:
    def test_row_map_is_adopted(self):
        rows = {0: {1: 2}}
        c = BigradedComplex([(0, 0), (1, 0)], rows)
        assert c.out is rows
        assert _flat(c.homology()) == {(1, 0): (0, (2,))}

    @pytest.mark.parametrize("rows", [{0: {2: 1}}, {2: {0: 1}}, {-1: {}},
                                      {0: {1: 0}}])
    def test_row_map_checked(self, rows):
        with pytest.raises(ValueError):
            BigradedComplex([(0, 0), (1, 0)], rows)

    def test_multiplication_by_two_gives_torsion(self):
        c = BigradedComplex([(0, 0), (1, 0)], {0: {1: 2}})
        assert _flat(c.homology()) == {(1, 0): (0, (2,))}

    def test_two_by_two_torsion_block(self):
        # [[1, 1], [1, -1]] has Smith form diag(1, 2).
        c = BigradedComplex(
            [(0, 0), (0, 0), (1, 0), (1, 0)],
            {0: {2: 1, 3: 1}, 1: {2: 1, 3: -1}})
        assert _flat(c.homology()) == {(1, 0): (0, (2,))}

    def test_acyclic_complex(self):
        c = BigradedComplex([(0, 0), (1, 0)], {0: {1: 1}})
        assert _flat(c.homology()) == {}

    def test_zero_differential(self):
        c = BigradedComplex([(0, 1), (0, -1)])
        assert _flat(c.homology()) == {(0, 1): (1, ()), (0, -1): (1, ())}

    def test_square_nonzero_rejected(self):
        c = BigradedComplex(
            [(0, 0), (1, 0), (2, 0)], {0: {1: 1}, 1: {2: 1}})
        with pytest.raises(NotADifferential):
            c.check_square_zero()
        with pytest.raises(NotADifferential):
            c.homology()

    def test_inhomogeneous_keyed_none(self):
        # d drops two q-levels: not (1, 0)-homogeneous, so the homology
        # is reported as one total group.
        c = BigradedComplex([(0, 2), (1, 0)], {0: {1: 3}})
        assert not c.is_homogeneous((1, 0))
        assert c.is_homogeneous((1, -2))
        groups = c.homology()
        assert set(groups) == {None}
        assert groups[None].torsion == (3,)

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            BigradedComplex([(0, 0)], {0: {1: 1}})

    def test_graded_ranks(self):
        c = BigradedComplex([(0, 0), (0, 0), (1, 2)])
        assert c.graded_ranks() == {(0, 0): 2, (1, 2): 1}

    def test_rational_ranks_drop_torsion(self):
        c = BigradedComplex([(0, 0), (1, 0)], {0: {1: 2}})
        assert c.rational_ranks() == {}


    def test_square_zero_message_matches_dense_product(self):
        # d^2 broken on purpose: generator 0 has one bad target, generator
        # 1 has three.  Gradings (h, q) = (level, 0).
        levels = [0, 0, 1, 1, 1, 2, 2, 2]
        entries = [(0, 2, 1), (0, 3, -1),
                   (1, 2, 2), (1, 4, 1),
                   (2, 5, 1), (2, 6, 3),
                   (3, 5, 1), (3, 6, 3), (3, 7, 1),
                   (4, 5, -1), (4, 7, 2)]
        n = len(levels)
        dense = [[0] * n for _ in range(n)]
        for s, t, v in entries:
            dense[s][t] = v
        square = [[sum(dense[s][m] * dense[m][t] for m in range(n))
                   for t in range(n)] for s in range(n)]
        bad = [(s, t, square[s][t]) for s in range(n) for t in range(n)
               if square[s][t]]
        src, tgt, value = bad[0]
        # The first bad row has a single bad entry, so its position does
        # not depend on the order targets are met in; another row has
        # several.
        assert [b for b in bad if b[0] == src] == [bad[0]]
        assert max(sum(b[0] == s for b in bad) for s in range(n)) > 1
        rows = {}
        for s, t, v in entries:
            rows.setdefault(s, {})[t] = v
        c = BigradedComplex([(h, 0) for h in levels], rows)
        expected = (f"d^2 != 0: entry {value} from generator {src} "
                    f"(grading ({levels[src]}, 0)) to {tgt} "
                    f"(grading ({levels[tgt]}, 0)); "
                    f"{len(bad)} bad entries total")
        with pytest.raises(NotADifferential) as exc:
            c.check_square_zero()
        assert str(exc.value) == expected


def _invariant_factors(orders):
    """Divisor chain of the direct sum of Z/k over the given orders."""
    powers = {}
    for k in orders:
        p = 2
        while k > 1:
            if k % p == 0:
                q = 1
                while k % p == 0:
                    k //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    chain = []
    for i in range(max((len(v) for v in powers.values()), default=0)):
        f = 1
        for v in powers.values():
            v = sorted(v, reverse=True)
            if i < len(v):
                f *= v[i]
        chain.append(f)
    return tuple(sorted(chain))


_PIECES = st.lists(
    st.tuples(st.sampled_from(["unit", "torsion", "free"]),
              st.integers(0, 2), st.sampled_from([0, 2]),
              st.sampled_from([1, -1]), st.integers(2, 12)),
    min_size=1, max_size=20)


@st.composite
def _conjugated_sums(draw):
    """A direct sum of Z --(+-1)--> Z, Z --k--> Z (k >= 2) and Z pieces,
    conjugated in every bigrading by a random unimodular matrix.

    Returns (gradings, rows, expected homology as {(h, q):
    (free_rank, torsion chain)})."""
    pieces = draw(_PIECES)
    gens = []          # (h, q) per generator
    diff = {}          # (src, tgt) -> coefficient
    free, torsion = {}, {}
    for kind, h, q, u, k in pieces:
        gens.append((h, q))
        if kind == "free":
            free[(h, q)] = free.get((h, q), 0) + 1
            continue
        gens.append((h + 1, q))
        diff[(len(gens) - 2, len(gens) - 1)] = u if kind == "unit" else k
        if kind == "torsion":
            torsion.setdefault((h + 1, q), []).append(k)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    # Per bigrading, a unimodular M and its inverse from elementary row
    # operations; the new basis vector i is sum_j M[i][j] * old_j.
    blocks = {}
    for g, key in enumerate(gens):
        blocks.setdefault(key, []).append(g)
    mats = {}
    for key, members in blocks.items():
        m = len(members)
        M = [[int(i == j) for j in range(m)] for i in range(m)]
        Minv = [row[:] for row in M]
        for _ in range(rng.randint(0, 3 * m) if m > 1 else 0):
            i, j = rng.sample(range(m), 2)
            c = rng.choice([-2, -1, 1, 2])
            # row_i += c * row_j on M; col_j -= c * col_i on M^-1.
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
            for row in Minv:
                row[j] -= c * row[i]
        if rng.random() < 0.5:
            M[0] = [-a for a in M[0]]
            for row in Minv:
                row[0] = -row[0]
        mats[key] = (members, M, Minv)
    # d(new_i) = sum_j M[i][j] d(old_j); rewrite each old target t in
    # the new basis as old_t = sum_l Minv[t][l] new_l.
    entries = {}
    for key, (members, M, _) in mats.items():
        for i, new_src in enumerate(members):
            for j, old_src in enumerate(members):
                if not M[i][j]:
                    continue
                for (s, t), v in diff.items():
                    if s != old_src:
                        continue
                    tmembers, _, tinv = mats[gens[t]]
                    row = tinv[tmembers.index(t)]
                    for lpos, new_t in enumerate(tmembers):
                        w = M[i][j] * v * row[lpos]
                        if w:
                            entries[(new_src, new_t)] = \
                                entries.get((new_src, new_t), 0) + w
    expected = {}
    for key in set(free) | set(torsion):
        grp = (free.get(key, 0), _invariant_factors(torsion.get(key, [])))
        if grp != (0, ()):
            expected[key] = grp
    # Shuffle generator ids so they do not follow the pieces.
    perm = list(range(len(gens)))
    rng.shuffle(perm)
    gradings = [None] * len(gens)
    for old, new in enumerate(perm):
        gradings[new] = gens[old]
    rows = {}
    for (s, t), v in entries.items():
        if v:
            rows.setdefault(perm[s], {})[perm[t]] = v
    return gradings, rows, expected


def _assert_homology_repeats(c):
    """homology() twice gives one table and leaves c.out as it was, rows
    and entries in their order."""
    rows = [(s, list(row.items())) for s, row in c.out.items()]
    first = c.homology()
    assert c.homology() == first
    assert c.homology(reduce=False) == first
    assert [(s, list(row.items())) for s, row in c.out.items()] == rows


class TestReduction:
    """Unit cancellation must never change homology."""

    @pytest.mark.parametrize("name", [
        "trefoil", "figure8", "hopf", "clasp-minus", "clasp-plus",
        "pseudo-11-2-2-1"])
    def test_reduced_equals_unreduced_on_real_complexes(self, name):
        diagram = (braid_closure([1, 1, 2, -2, 1]).with_marked([0, 1, 4])
                   if name == "pseudo-11-2-2-1" else corpus.get(name))
        kc = assemble(diagram)
        c = kc.bigraded_complex(check=True)
        _assert_homology_repeats(c)
        assert _flat(c.homology(reduce=True)) == _flat(c.homology(reduce=False))
        assert kc.homology() == kc.homology()

    @settings(max_examples=150, deadline=None)
    @given(_conjugated_sums())
    def test_conjugated_direct_sums_match_known_homology(self, case):
        gradings, rows, expected = case
        c = BigradedComplex(gradings, rows)
        _assert_homology_repeats(c)
        assert _flat(c.homology(reduce=True)) == expected
        assert _flat(c.homology(reduce=False)) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reduced_equals_unreduced_on_random_complexes(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 10)
        gradings = [(rng.randint(0, 2), rng.randint(-2, 2) * 2) for _ in range(n)]
        # Random (1, 0)-homogeneous differential, then keep it only if
        # d^2 == 0 (drop entries from d^2 support until it is).
        entries = {}
        for s in range(n):
            for t in range(n):
                hs, qs = gradings[s]
                ht, qt = gradings[t]
                if (ht - hs, qt - qs) == (1, 0) and rng.random() < 0.7:
                    entries[(s, t)] = rng.choice([-2, -1, 1, 2])
        # Gradings (0..2, fixed q) give a two-step complex only when some
        # composite exists; zero out one factor of every bad composite.
        while True:
            rows = {}
            for (s, t), v in entries.items():
                rows.setdefault(s, {})[t] = v
            c = BigradedComplex(gradings, rows)
            try:
                c.check_square_zero()
                break
            except NotADifferential:
                mids = [m for (s, m) in entries for (m2, t) in entries
                        if m == m2]
                del entries[next((s, t) for (s, t) in entries
                                 if t in mids or s in mids)]
        assert _flat(c.homology(reduce=True)) == _flat(c.homology(reduce=False))
