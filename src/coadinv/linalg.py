"""Exact linear algebra over the rationals.

Dense routines (row reduction, rank, nullspace) serve the small matrices
that arise from brackets, weight matrices and random evaluations of the
coadjoint matrix.  Rank is fraction-free: rows are scaled to integers and
reduced by Bareiss elimination, whose exact integer divisions keep every
entry a minor of the input.  The sparse fraction-free eliminator handles the
larger homogeneous systems produced by the polynomial-invariant search, where
rows are short integer dicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

Row = List[Fraction]


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    zero = [Fraction(0)] * ncols
    return m[:r] + [list(zero) for _ in range(len(m) - r)], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over the integers.

    Each row is multiplied by the lcm of its denominators, which leaves the
    rank unchanged.  After a pivot step every entry below the pivot row is a
    minor of the integer matrix, so the division by the previous pivot is
    exact and no fraction is ever formed.
    """
    m = []
    for row in rows:
        fr = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in fr))
        m.append([x.numerator * (den // x.denominator) for x in fr])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        top = m[r]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (piv * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int,
              pivot_side: str = "left") -> List[Row]:
    """Basis of {v : A v = 0} as Fraction vectors.

    pivot_side "left" is the usual convention (pivots on leading columns).
    "right" prefers pivots on trailing columns, so each basis vector is
    supported on the earliest possible coordinates; vectors are returned in
    ascending order of their first nonzero position.
    """
    if pivot_side not in ("left", "right"):
        raise ValueError("pivot_side must be 'left' or 'right'")
    if pivot_side == "right":
        flipped = [list(reversed([Fraction(x) for x in row])) for row in rows]
        basis = [list(reversed(v)) for v in nullspace(flipped, ncols, "left")]
        basis.sort(key=lambda v: next((i for i, x in enumerate(v) if x != 0), ncols))
        return basis
    reduced, pivots = rref(rows if rows else [[Fraction(0)] * ncols])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def clear_to_integers(vec: Sequence[Fraction]) -> List[int]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    fracs = [Fraction(x) for x in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


# ---------------------------------------------------------------------------
# Sparse homogeneous solver (integer, fraction-free)
# ---------------------------------------------------------------------------

SparseRow = Dict[int, int]


def _reduce_row(row: SparseRow) -> SparseRow:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def sparse_nullspace(rows: Sequence[SparseRow], ncols: int) -> List[List[Fraction]]:
    """Nullspace basis of a sparse integer system A v = 0.

    Rows are dicts column -> integer coefficient.  Incremental fraction-free
    echelonization: each incoming row is reduced against the current pivot
    rows, then becomes a pivot itself (on its largest column, which keeps the
    early columns free).  The basis has one vector per free column, in
    ascending column order; canonicality beyond that is the caller's job.
    """
    pivots: Dict[int, SparseRow] = {}
    order: List[int] = []
    for incoming in rows:
        row = _reduce_row({c: v for c, v in incoming.items() if v})
        while row:
            hit = next((c for c in row if c in pivots), None)
            if hit is None:
                break
            prow = pivots[hit]
            pval = prow[hit]
            rv = row[hit]
            new: SparseRow = {}
            for c, v in row.items():
                if c != hit:
                    new[c] = pval * v
            for c, v in prow.items():
                if c == hit:
                    continue
                nv = new.get(c, 0) - rv * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            row = _reduce_row(new)
        if row:
            pc = max(row)
            pivots[pc] = row
            order.append(pc)

    free_cols = [c for c in range(ncols) if c not in pivots]
    if not free_cols:
        return []
    # Express every column in terms of the free columns.  A pivot row holds
    # no earlier pivot columns (eliminated at insertion), so walking the
    # insertion order backwards resolves all dependencies.
    expr: Dict[int, Dict[int, Fraction]] = {c: {c: Fraction(1)} for c in free_cols}
    for pc in reversed(order):
        row = pivots[pc]
        pval = row[pc]
        acc: Dict[int, Fraction] = {}
        for c, v in row.items():
            if c == pc:
                continue
            for fc, fv in expr[c].items():
                nv = acc.get(fc, Fraction(0)) - Fraction(v, pval) * fv
                if nv:
                    acc[fc] = nv
                else:
                    del acc[fc]
        expr[pc] = acc
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        for c in range(ncols):
            f = expr[c].get(fc)
            if f:
                v[c] = f
        basis.append(v)
    return basis
