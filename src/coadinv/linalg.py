"""Exact linear algebra over the rationals.

Dense routines (row reduction, rank, nullspace) serve the small matrices
that arise from brackets, weight matrices and random evaluations of the
coadjoint matrix.  Rank is fraction-free: rows are scaled to integers and
reduced by Bareiss elimination, whose exact integer divisions keep every
entry a minor of the input.  The sparse fraction-free eliminator handles the
larger homogeneous systems produced by the polynomial-invariant search, where
rows are short integer dicts: it takes rows shortest first, back-substitutes
over the integers, and returns the canonical nullspace basis (reduced echelon
form with pivot 1, one vector per free column, free columns ascending).
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


def _eliminate(row: SparseRow, prow: SparseRow, pc: int) -> SparseRow:
    """Integer combination of row and pivot row prow that clears column pc."""
    if len(prow) == 1:  # a zero column: shortest-first makes this common
        new = dict(row)
        del new[pc]
        return _reduce_row(new)
    pval = prow[pc]
    rv = row[pc]
    new: SparseRow = {c: pval * v for c, v in row.items() if c != pc}
    for c, v in prow.items():
        if c == pc:
            continue
        nv = new.get(c, 0) - rv * v
        if nv:
            new[c] = nv
        else:
            new.pop(c, None)
    return _reduce_row(new)


def sparse_nullspace(rows: Sequence[SparseRow], ncols: int) -> List[List[Fraction]]:
    """Canonical nullspace basis of a sparse integer system A v = 0.

    Rows are dicts column -> integer coefficient, taken shortest first so
    that single-entry rows remove their column before it can fill in longer
    ones.  Forward elimination is fraction-free: each row is cleared of every
    existing pivot column by integer combinations, then becomes a pivot row
    on its largest column.  Back-substitution is over the integers too:
    walking the pivots in ascending column order, each pivot row is cleared
    of every smaller pivot column, leaving only its pivot and free columns.

    The basis has one vector per free column, free columns ascending; vector
    fc is 1 at fc, 0 at every other free column, and nonzero otherwise only
    at pivot columns greater than fc.  It is therefore the reduced echelon
    form of the nullspace with pivot 1 (the same basis as
    nullspace(A, ncols, pivot_side="right")) and does not depend on the row
    order.  Entries are Fractions; one is formed per nonzero entry.
    """
    pivots: Dict[int, SparseRow] = {}
    for incoming in sorted(rows, key=len):
        row = _reduce_row({c: v for c, v in incoming.items() if v})
        while row:
            hit = next((c for c in row if c in pivots), None)
            if hit is None:
                pivots[max(row)] = row
                break
            row = _eliminate(row, pivots[hit], hit)

    free_cols = [c for c in range(ncols) if c not in pivots]
    if not free_cols:
        return []
    for pc in sorted(pivots):
        row = pivots[pc]
        while True:
            hit = next((c for c in row if c != pc and c in pivots), None)
            if hit is None:
                break
            row = _eliminate(row, pivots[hit], hit)
        pivots[pc] = row
    basis = {fc: [Fraction(0)] * ncols for fc in free_cols}
    for fc, v in basis.items():
        v[fc] = Fraction(1)
    for pc, row in pivots.items():
        pval = row[pc]
        for fc, v in row.items():
            if fc != pc:
                basis[fc][pc] = Fraction(-v, pval)
    return list(basis.values())
