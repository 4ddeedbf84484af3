"""Structure constants: Jacobi checks, brackets, derived algebra, coadjoint
matrix and its generic rank."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from coadinv.algebra import (
    StructureConstants,
    bracket,
    coadjoint_matrix,
    derived_algebra_dim,
    generic_rank,
    is_perfect,
    jacobi_defect,
    num_invariants,
)
from coadinv.catalog import instantiate
from coadinv.expr import Polynomial

from .conftest import abelian
from . import oracle


class TestJacobi:
    def test_abelian_is_a_lie_algebra(self):
        assert jacobi_defect(abelian(4)) == []

    def test_sl2(self, sl2):
        assert jacobi_defect(sl2) == []
        assert oracle.jacobi_residuals(sl2.entries, 3) == []

    def test_violation_is_reported(self):
        # [X1,X2]=X1 together with [X1,X3]=X3 breaks the cyclic identity
        bad = StructureConstants(3, {(1, 2, 1): F(1), (1, 3, 3): F(1)})
        defects = jacobi_defect(bad)
        assert defects, "expected a Jacobi violation"
        assert defects == oracle.jacobi_residuals(bad.entries, 3)
        assert (1, 2, 3, 3, F(-1)) in defects or (1, 2, 3, 3, F(1)) in defects

    def test_triangular_tensor_satisfies_jacobi(self):
        # All brackets landing on a common ideal direction close up; the
        # direct cyclic expansion (also done by the oracle) is identically
        # zero for this tensor.
        sc = StructureConstants(3, {(1, 2, 3): F(1), (1, 3, 3): F(1), (2, 3, 3): F(1)})
        assert jacobi_defect(sc) == []
        assert oracle.jacobi_residuals(sc.entries, 3) == []

    def test_catalog_records_all_pass(self, catalog_records):
        for rec in catalog_records:
            sc, _ = instantiate(rec)
            assert jacobi_defect(sc) == [], rec.name

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_tensors_match_oracle(self, data):
        n = data.draw(st.integers(2, 6), label="dim")
        const = st.fractions(min_value=-6, max_value=6, max_denominator=4)
        if data.draw(st.booleans(), label="lie"):
            # X1 acting on the abelian ideal span{X2..Xn} by any matrix is a
            # Lie algebra, whatever the constants
            entries = {(1, j, k): data.draw(const)
                       for j in range(2, n + 1) for k in range(2, n + 1)
                       if data.draw(st.booleans())}
        else:
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            keys = st.tuples(st.sampled_from(pairs), st.integers(1, n))
            entries = {(i, j, k): c for ((i, j), k), c in
                       data.draw(st.dictionaries(keys, const, max_size=3 * n)).items()}
        sc = StructureConstants(n, entries)
        assert jacobi_defect(sc) == oracle.jacobi_residuals(sc.entries, n)


class TestBracket:
    def test_antisymmetry_on_basis(self, sl2):
        e1 = [1, 0, 0]
        assert bracket(sl2, e1, e1) == [0, 0, 0]

    def test_sl2_values(self, sl2):
        assert bracket(sl2, [0, 1, 0], [0, 0, 1]) == [1, 0, 0]
        assert bracket(sl2, [1, 0, 0], [0, 1, 0]) == [0, 2, 0]

    def test_bracket_basis_is_antisymmetric_copy(self, sl2):
        assert sl2.bracket_basis(1, 2) == {2: F(2)}
        assert sl2.bracket_basis(3, 1) == {3: F(2)}
        assert sl2.bracket_basis(2, 2) == {}
        sl2.bracket_basis(1, 2)[2] = F(5)
        assert sl2.bracket_basis(1, 2) == {2: F(2)}

    def test_length_mismatch(self, sl2):
        with pytest.raises(ValueError):
            bracket(sl2, [1, 0], [0, 1, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        u=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                   min_size=3, max_size=3),
        v=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                   min_size=3, max_size=3),
        a=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    def test_bilinear_antisymmetric(self, sl2, u, v, a):
        n = 3
        lhs = bracket(sl2, u, v)
        assert bracket(sl2, v, u) == [-x for x in lhs]
        au = [a * x for x in u]
        assert bracket(sl2, au, v) == [a * x for x in lhs]
        w = [F(1), F(-2), F(3)]
        upw = [x + y for x, y in zip(u, w)]
        sum_brackets = [x + y for x, y in zip(lhs, bracket(sl2, w, v))]
        assert bracket(sl2, upw, v) == sum_brackets


class TestDerivedAlgebra:
    def test_abelian(self):
        assert derived_algebra_dim(abelian(5)) == 0
        assert not is_perfect(abelian(5))

    def test_sl2(self, sl2):
        assert derived_algebra_dim(sl2) == 3
        assert oracle.bracket_span_rank(sl2.entries, 3) == 3
        assert is_perfect(sl2)

    def test_L61_is_perfect(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_6,1"])
        assert derived_algebra_dim(sc) == 6
        assert oracle.bracket_span_rank(sc.entries, 6) == 6
        assert is_perfect(sc)

    def test_L71_is_not_perfect(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_7,1"])
        assert derived_algebra_dim(sc) == 6
        assert not is_perfect(sc)


class TestCoadjointMatrix:
    def test_abelian_zero(self):
        M = coadjoint_matrix(abelian(3))
        assert all(M.entry(i, j).is_zero for i in range(1, 4) for j in range(1, 4))

    def test_heisenberg(self, heisenberg1):
        M = coadjoint_matrix(heisenberg1)
        assert M.entry(1, 2) == Polynomial.variable(3, 3)
        assert M.entry(2, 1) == -Polynomial.variable(3, 3)
        assert M.entry(1, 3).is_zero and M.entry(2, 3).is_zero

    def test_sl2_entries(self, sl2):
        M = coadjoint_matrix(sl2)
        assert M.entry(1, 2) == 2 * Polynomial.variable(3, 2)
        assert M.entry(1, 3) == -2 * Polynomial.variable(3, 3)
        assert M.entry(2, 3) == Polynomial.variable(3, 1)

    def test_skewness_at_points(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_6,2"])
        M = coadjoint_matrix(sc).evaluate([1, 2, 3, 4, 5, 6])
        for i in range(6):
            for j in range(6):
                assert M[i][j] == -M[j][i]

    def test_rows_match_operator_coefficients(self, catalog_by_name):
        # row i of the matrix holds the coefficient of d/dx_j in operator i
        from coadinv.invariants import apply_operator
        from coadinv.expr import as_polynomial

        sc, _ = instantiate(catalog_by_name["L_6,4"])
        M = coadjoint_matrix(sc)
        for i in range(1, 7):
            for j in range(1, 7):
                img = apply_operator(sc, i, Polynomial.variable(6, j))
                assert as_polynomial(img, 6) == M.entry(i, j)


class TestGenericRank:
    def test_abelian(self):
        assert generic_rank(coadjoint_matrix(abelian(3))) == 0
        assert num_invariants(abelian(4)) == 4

    def test_heisenberg(self, heisenberg1):
        assert generic_rank(coadjoint_matrix(heisenberg1)) == 2

    def test_L81(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        assert generic_rank(coadjoint_matrix(sc)) == 6
        assert num_invariants(sc) == 2

    def test_L51(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_5,1"])
        assert num_invariants(sc) == 1

    def test_monotone_in_trials_and_even(self, catalog_records):
        for rec in catalog_records[:8]:
            sc, _ = instantiate(rec)
            M = coadjoint_matrix(sc)
            r1 = generic_rank(M, trials=1)
            r3 = generic_rank(M, trials=3)
            r5 = generic_rank(M, trials=5)
            assert r1 <= r3 <= r5
            assert r5 % 2 == 0

    def test_parity_and_evenness_all_records(self, catalog_records):
        for rec in catalog_records:
            sc, _ = instantiate(rec)
            r = generic_rank(coadjoint_matrix(sc))
            assert r % 2 == 0, rec.name
            assert (sc.dim - r) % 2 == sc.dim % 2, rec.name

    def test_central_coordinates_bound_invariant_count(self, catalog_by_name):
        # x8 is central in L_8,19: its column vanishes, so N >= 1
        sc, _ = instantiate(catalog_by_name["L_8,19"])
        M = coadjoint_matrix(sc)
        assert all(M.entry(i, 8).is_zero for i in range(1, 9))
        assert num_invariants(sc) >= 1


class TestValidation:
    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            StructureConstants(3, {(2, 1, 3): F(1)})  # i >= j
        with pytest.raises(ValueError):
            StructureConstants(3, {(1, 2, 4): F(1)})  # k out of range
        with pytest.raises(ValueError):
            StructureConstants(0, {})

    def test_zero_entries_dropped(self):
        sc = StructureConstants(3, {(1, 2, 3): F(0)})
        assert sc.entries == {}
