"""Exact linear algebra over the rationals, with one eliminator.

Every routine runs the same sparse fraction-free echelon: rows are dicts
column -> integer (rational rows are first scaled to integers, which leaves
the row space alone), taken shortest first and reduced by integer
combinations, each new row becoming a pivot row on its largest column.  An
optional back-substitution, also over the integers, clears every pivot row of
the other pivot columns.

- rank(rows): the number of pivot rows after the forward pass.
- rref(rows): the reduced row echelon form and its pivot columns, read from
  the back-substituted echelon on reversed columns (so each pivot lands on
  the leftmost column of its row) and scaled to pivot 1.
- sparse_nullspace(rows, ncols): the canonical nullspace basis (reduced
  echelon form with pivot 1, one vector per free column, free columns
  ascending).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

Row = List[Fraction]
SparseRow = Dict[int, int]


def _integer_row(row: Sequence[Fraction]) -> List[int]:
    """The row times the lcm of its denominators."""
    fr = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def _sparse_integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[SparseRow]:
    return [{c: v for c, v in enumerate(_integer_row(row)) if v} for row in rows]


def clear_to_integers(vec: Sequence[Fraction]) -> List[int]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    ints = _integer_row(vec)
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


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


def _echelon(rows: Sequence[SparseRow]) -> Dict[int, SparseRow]:
    """Forward pass: pivot column -> pivot row, each row on its largest column.

    Rows are taken shortest first, so that single-entry rows remove their
    column before it can fill in longer ones; each row is cleared of every
    existing pivot column by integer combinations.
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
    return pivots


def _back_substitute(pivots: Dict[int, SparseRow]) -> None:
    """Clear every pivot row of the other pivot columns, in place.

    Walking the pivots in ascending column order, each row only holds
    smaller pivot columns, whose rows are already reduced; afterwards a row
    holds its pivot and free columns below it.
    """
    for pc in sorted(pivots):
        row = pivots[pc]
        while True:
            hit = next((c for c in row if c != pc and c in pivots), None)
            if hit is None:
                break
            row = _eliminate(row, pivots[hit], hit)
        pivots[pc] = row


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank: the number of pivots of the integer echelon."""
    return len(_echelon(_sparse_integer_rows(rows)))


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Zero rows pad the result to the number of input rows.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    last = ncols - 1
    flipped = [{last - c: v for c, v in row.items()}
               for row in _sparse_integer_rows(rows)]
    pivots = _echelon(flipped)
    _back_substitute(pivots)
    order = sorted(pivots, reverse=True)  # original pivot columns ascending
    out: List[Row] = []
    for fpc in order:
        row = pivots[fpc]
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[last - c] = Fraction(v, row[fpc])
        out.append(dense)
    out.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(out)))
    return out, [last - fpc for fpc in order]


def sparse_nullspace(rows: Sequence[SparseRow], ncols: int) -> List[List[Fraction]]:
    """Canonical nullspace basis of a sparse integer system A v = 0.

    Rows are dicts column -> integer coefficient.  After the echelon and its
    back-substitution every pivot row holds its pivot and free columns below
    it, so the basis has one vector per free column, free columns ascending;
    vector fc is 1 at fc, 0 at every other free column, and nonzero
    otherwise only at pivot columns greater than fc.  It is therefore the
    reduced echelon form of the nullspace with pivot 1, supported on the
    earliest possible coordinates, and does not depend on the row order.
    Entries are Fractions; one is formed per nonzero entry.
    """
    pivots = _echelon(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    if not free_cols:
        return []
    _back_substitute(pivots)
    basis = {fc: [Fraction(0)] * ncols for fc in free_cols}
    for fc, v in basis.items():
        v[fc] = Fraction(1)
    for pc, row in pivots.items():
        pval = row[pc]
        for fc, v in row.items():
            if fc != pc:
                basis[fc][pc] = Fraction(-v, pval)
    return list(basis.values())
