"""Exact linear algebra: row reduction, nullspaces, integer clearing."""

from __future__ import annotations

from fractions import Fraction as F

import sympy
from hypothesis import given, settings, strategies as st

from coadinv import linalg


def test_rref_simple():
    rows = [[F(2), F(4)], [F(1), F(2)]]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]
    assert reduced[1] == [F(0), F(0)]


def test_rank():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(0), F(0)]]) == 0
    assert linalg.rank([[1, 2], [3, 4]]) == 2  # plain integers are accepted
    # Bareiss must update every row below the pivot, including rows whose
    # entry in the pivot column is already 0; skipping them makes a later
    # integer division inexact and loses a rank here.
    assert linalg.rank([[0, 2, 0], [3, -1, 2], [0, -1, 1], [3, -5, 2]]) == 3


@st.composite
def rational_matrices(draw):
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 8))
    nonzero = st.one_of(
        st.integers(-3, 3).map(F),
        st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=9),
        st.integers(-10 ** 6, 10 ** 6).map(F),
    )
    # each matrix draws its own density, so sparse and dense ones both occur
    density = draw(st.integers(1, 4))
    rows = [[draw(nonzero) if draw(st.integers(1, 4)) <= density else F(0)
             for _ in range(ncols)] for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = F(0)
    # insert rational combinations of other rows, so some rows are dependent
    coeff = st.fractions(-5, 5, max_denominator=6)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(coeff), draw(coeff)
        rows.insert(draw(st.integers(0, len(rows))),
                    [s * x + t * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=rational_matrices())
def test_rank_matches_sympy(rows):
    expected = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]).rank()
    assert linalg.rank(rows) == expected


def test_nullspace_left_convention():
    # x + 2y + 3z = 0: free columns y, z
    basis = linalg.nullspace([[F(1), F(2), F(3)]], 3)
    assert basis == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]


def test_nullspace_right_convention_prefers_early_support():
    basis = linalg.nullspace([[F(-2), F(-1), F(-2)]], 3, pivot_side="right")
    cleared = [linalg.clear_to_integers(v) for v in basis]
    assert cleared == [[1, 0, -1], [0, 2, -1]]


def test_clear_to_integers():
    assert linalg.clear_to_integers([F(-1, 2), F(1), F(0)]) == [1, -2, 0]
    assert linalg.clear_to_integers([F(2, 3), F(4, 3)]) == [1, 2]
    assert linalg.clear_to_integers([F(0), F(0)]) == [0, 0]


def _dense_from_sparse(rows, ncols):
    out = []
    for r in rows:
        row = [F(0)] * ncols
        for c, v in r.items():
            row[c] = F(v)
        out.append(row)
    return out


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-5, 5), max_size=4),
        max_size=6,
    )
)
def test_sparse_nullspace_matches_dense(rows):
    ncols = 6
    sparse_basis = linalg.sparse_nullspace(rows, ncols)
    dense = _dense_from_sparse(rows, ncols)
    # every sparse basis vector solves the system
    for v in sparse_basis:
        for row in dense:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # and the dimensions agree with rank-nullity
    assert len(sparse_basis) == ncols - linalg.rank(dense)
    # the two solvers span the same space
    dense_basis = linalg.nullspace(dense, ncols)
    combined = linalg.rank(sparse_basis + dense_basis) if sparse_basis else 0
    assert combined == len(dense_basis) == len(sparse_basis)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                 min_size=4, max_size=4),
        min_size=1, max_size=5,
    )
)
def test_nullspace_solves_and_rank_nullity(rows):
    ncols = 4
    basis = linalg.nullspace(rows, ncols)
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(basis) == ncols - linalg.rank(rows)


@st.composite
def sparse_integer_systems(draw):
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))
    # some columns never occur, so they stay free
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1, unique=True))
    row = st.dictionaries(st.sampled_from(cols), entry, max_size=4)  # may be {}
    rows = draw(st.lists(row, max_size=8))
    # insert integer combinations of other rows, so some rows are dependent
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        comb = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)}
        rows.insert(draw(st.integers(0, len(rows))), comb)
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(system=sparse_integer_systems(), data=st.data())
def test_sparse_nullspace_is_the_canonical_basis(system, data):
    rows, ncols = system
    basis = linalg.sparse_nullspace(rows, ncols)
    dense = _dense_from_sparse(rows, ncols)
    assert basis == linalg.nullspace(dense, ncols, pivot_side="right")
    # already reduced echelon form with pivot 1
    if basis:
        assert linalg.rref(basis)[0] == basis
    # independent of the order the rows come in
    shuffled = data.draw(st.permutations(rows))
    assert linalg.sparse_nullspace(shuffled, ncols) == basis


def test_sparse_nullspace_hand_cases():
    # no rows: the identity basis
    assert linalg.sparse_nullspace([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    # a zero row and a unit row leave columns 0 and 2 free
    basis = linalg.sparse_nullspace([{1: 0}, {1: 5}], 3)
    assert basis == [[F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    # x0 + 2 x1 + 3 x2 = 0 and 4 x1 + 6 x2 = 0: x1 free, x0 forced to 0
    basis = linalg.sparse_nullspace([{0: 1, 1: 2, 2: 3}, {1: 4, 2: 6}], 3)
    assert basis == [[F(0), F(1), F(-2, 3)]]
    # the pivot row of x2 holds x1, the pivot of a later row, which
    # back-substitution must clear
    basis = linalg.sparse_nullspace([{1: 1, 2: 1}, {0: 1, 1: 1}], 3)
    assert basis == [[F(1), F(-1), F(1)]]
