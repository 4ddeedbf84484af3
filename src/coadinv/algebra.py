"""Lie algebras given by exact structure constants.

A StructureConstants value stores the bracket tensor sparsely: only entries
with i < j are kept (1-based indices).  Alongside them it builds, once, an
ordered-pair table (i, j) -> {k: C_ij^k} for both orders with antisymmetry
applied, so a bracket of basis vectors is a lookup.  The Jacobi check
contracts nested brackets over the nonzero table entries only, and the
coadjoint matrix is a view over the same table.  All
coefficients are exact rationals, so the Jacobi check, the derived algebra
and the rank of the coadjoint matrix are certificates, not approximations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from . import linalg
from .expr import Polynomial

Key = Tuple[int, int, int]  # (i, j, k) with i < j


class StructureConstants:
    """Antisymmetric structure tensor C_ij^k of an n-dimensional algebra."""

    __slots__ = ("dim", "entries", "_table")

    def __init__(self, dim: int, entries: Mapping[Key, Fraction]):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        clean: Dict[Key, Fraction] = {}
        for (i, j, k), value in entries.items():
            value = Fraction(value)
            if value == 0:
                continue
            if not (1 <= i < j <= dim) or not 1 <= k <= dim:
                raise ValueError(f"bad structure-constant index ({i},{j},{k}) for dim {dim}")
            clean[(i, j, k)] = value
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j, k), value in clean.items():
            table.setdefault((i, j), {})[k] = value
            table.setdefault((j, i), {})[k] = -value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "_table", table)

    def __setattr__(self, *a):
        raise AttributeError("StructureConstants is immutable")

    def c(self, i: int, j: int, k: int) -> Fraction:
        """C_ij^k for arbitrary i, j (antisymmetry applied)."""
        return self._table.get((i, j), {}).get(k, Fraction(0))

    def bracket_basis(self, i: int, j: int) -> Dict[int, Fraction]:
        """Coefficients of [X_i, X_j] on the basis, sparse."""
        return dict(self._table.get((i, j), {}))

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def __repr__(self):
        return f"StructureConstants(dim={self.dim}, nonzero={len(self.entries)})"


def jacobi_defect(sc: StructureConstants) -> List[Tuple[int, int, int, int, Fraction]]:
    """Every (i<j<k, l, residual) where the Jacobi cyclic sum is nonzero.

    The residual is the X_l coefficient of
    [[X_i, X_j], X_k] + [[X_j, X_k], X_i] + [[X_k, X_i], X_j], contracted
    over the nonzero entries of the bracket table; entries come out in
    ascending (i, j, k, l) order.  Empty list iff the constants define a Lie
    algebra.
    """
    n = sc.dim
    table = sc._table
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                acc: Dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in table.get((a, b), {}).items():
                        for l, w in table.get((m, c), {}).items():
                            acc[l] = acc.get(l, 0) + v * w
                for l in sorted(acc):
                    if acc[l] != 0:
                        out.append((i, j, k, l, acc[l]))
    return out


def bracket(sc: StructureConstants, u: Sequence, v: Sequence) -> List[Fraction]:
    """[u, v] in coordinates: w_k = sum_{i<j} C_ij^k (u_i v_j - u_j v_i)."""
    n = sc.dim
    if len(u) != n or len(v) != n:
        raise ValueError(f"vectors must have length {n}")
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    w = [Fraction(0)] * n
    for (i, j, k), c in sc.entries.items():
        w[k - 1] += c * (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1])
    return w


def derived_algebra_dim(sc: StructureConstants) -> int:
    """Dimension of span{[X_i, X_j]}, by exact row reduction."""
    rows = []
    for i in range(1, sc.dim + 1):
        for j in range(i + 1, sc.dim + 1):
            coeffs = sc.bracket_basis(i, j)
            if coeffs:
                row = [Fraction(0)] * sc.dim
                for k, c in coeffs.items():
                    row[k - 1] = c
                rows.append(row)
    if not rows:
        return 0
    return linalg.rank(rows)


def is_perfect(sc: StructureConstants) -> bool:
    """True iff the algebra equals its derived algebra."""
    return derived_algebra_dim(sc) == sc.dim


class CoadjointMatrix:
    """Skew matrix M_ij = sum_k C_ij^k x_k, a view over the bracket table.

    Row i holds the coefficients of the i-th coadjoint operator
    sum_j M_ij d/dx_j.  Entries are built as degree-1 polynomials only when
    asked for; evaluation at a point reads the structure constants directly.
    """

    __slots__ = ("dim", "_sc")

    def __init__(self, sc: StructureConstants):
        object.__setattr__(self, "dim", sc.dim)
        object.__setattr__(self, "_sc", sc)

    def __setattr__(self, *a):
        raise AttributeError("CoadjointMatrix is immutable")

    def _linear(self, coeffs: Mapping[int, Fraction]) -> Polynomial:
        n = self.dim
        return Polynomial(n, {tuple(1 if t == k - 1 else 0 for t in range(n)): c
                              for k, c in coeffs.items()})

    def entry(self, i: int, j: int) -> Polynomial:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"index ({i},{j}) out of range 1..{self.dim}")
        return self._linear(self._sc._table.get((i, j), {}))

    def row(self, i: int) -> Dict[int, Polynomial]:
        """j -> M_ij for the nonzero entries of row i, j ascending."""
        n = self.dim
        if not 1 <= i <= n:
            raise ValueError(f"row index {i} out of range 1..{n}")
        table = self._sc._table
        return {j: self._linear(table[(i, j)])
                for j in range(1, n + 1) if (i, j) in table}

    def evaluate(self, point: Sequence) -> List[List[Fraction]]:
        """The matrix at an exact rational point."""
        n = self.dim
        if len(point) != n:
            raise ValueError(f"point has length {len(point)}, expected {n}")
        x = [Fraction(v) for v in point]
        out = [[Fraction(0)] * n for _ in range(n)]
        for (i, j, k), c in self._sc.entries.items():
            v = c * x[k - 1]
            out[i - 1][j - 1] += v
            out[j - 1][i - 1] -= v
        return out


def coadjoint_matrix(sc: StructureConstants) -> CoadjointMatrix:
    """Matrix of the coadjoint operators' coefficients."""
    return CoadjointMatrix(sc)


SAMPLE_BOUND = 10 ** 6


def generic_rank(matrix: CoadjointMatrix, trials: int = 5, seed: int = 1) -> int:
    """Generic rank via exact evaluation at random integer points.

    Takes the max over `trials` pseudo-random points with coordinates in
    [-10^6, 10^6]; each evaluation is exact, so the only error mode is an
    unlucky point, with probability bounded a la Schwartz-Zippel by
    dim/10^6 per trial.  Always even for a skew matrix.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        point = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(matrix.dim)]
        r = linalg.rank(matrix.evaluate(point))
        if r > best:
            best = r
    return best


def num_invariants(sc: StructureConstants, trials: int = 5, seed: int = 1) -> int:
    """dim minus the generic rank of the coadjoint matrix."""
    return sc.dim - generic_rank(coadjoint_matrix(sc), trials=trials, seed=seed)
