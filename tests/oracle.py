"""Independent sympy-based oracles used to cross-check the library.

Everything here recomputes results from first principles with a different
engine (sympy), so agreement with the library is meaningful.  The helpers
take structure constants as the same sparse {(i,j,k): Fraction} maps the
library uses, but share no code path with it.
"""

from __future__ import annotations

from fractions import Fraction

import sympy


def sym_vars(n):
    return sympy.symbols(f"x1:{n + 1}")


def c_full(entries, i, j, k):
    if i == j:
        return Fraction(0)
    if i < j:
        return entries.get((i, j, k), Fraction(0))
    return -entries.get((j, i, k), Fraction(0))


def operator_image(entries, n, i, expr, xs=None):
    """sum_j (sum_k C_ij^k x_k) * d expr / d x_j, as a sympy expression."""
    xs = xs or sym_vars(n)
    total = sympy.Integer(0)
    for j in range(1, n + 1):
        coeff = sympy.Integer(0)
        for k in range(1, n + 1):
            c = c_full(entries, i, j, k)
            if c:
                coeff += sympy.Rational(c.numerator, c.denominator) * xs[k - 1]
        if coeff != 0:
            total += coeff * sympy.diff(expr, xs[j - 1])
    return sympy.expand(total)


def annihilated_by_all(entries, n, expr):
    xs = sym_vars(n)
    return all(sympy.simplify(operator_image(entries, n, i, expr, xs)) == 0
               for i in range(1, n + 1))


def jacobi_residuals(entries, n):
    """All nonzero cyclic sums, by direct expansion."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                for l in range(1, n + 1):
                    s = Fraction(0)
                    for m in range(1, n + 1):
                        s += (c_full(entries, i, j, m) * c_full(entries, m, k, l)
                              + c_full(entries, j, k, m) * c_full(entries, m, i, l)
                              + c_full(entries, k, i, m) * c_full(entries, m, j, l))
                    if s != 0:
                        out.append((i, j, k, l, s))
    return out


def bracket_span_rank(entries, n):
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            row = [sympy.Rational(c_full(entries, i, j, k).numerator,
                                  c_full(entries, i, j, k).denominator)
                   for k in range(1, n + 1)]
            rows.append(row)
    return sympy.Matrix(rows).rank() if rows else 0


def invariant_space_dim(entries, n, degree):
    """Dimension of homogeneous polynomial invariants of exactly `degree`,
    from the sympy nullspace of the full annihilation system."""
    import itertools

    xs = sym_vars(n)
    monos = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        e = [0] * n
        for v in combo:
            e[v] += 1
        monos.append(tuple(e))
    coeffs = sympy.symbols(f"a0:{len(monos)}")
    ansatz = sum(a * sympy.prod([xs[t] ** e[t] for t in range(n)])
                 for a, e in zip(coeffs, monos))
    eqs = []
    for i in range(1, n + 1):
        img = operator_image(entries, n, i, ansatz, xs)
        poly = sympy.Poly(img, *xs)
        eqs.extend(poly.coeffs())
    if not eqs:
        return len(monos)
    A, _ = sympy.linear_eq_to_matrix(eqs, coeffs)
    return len(A.nullspace())


def bordered_determinant(entries, n):
    """Determinant of the coadjoint block on generators 1..n-1 bordered with
    (x1,x2,x3,x4/2,..,x_{n-1}/2), computed entirely in sympy."""
    xs = sym_vars(n)
    M = sympy.zeros(n, n)
    for i in range(1, n):
        for j in range(1, n):
            coeff = sympy.Integer(0)
            for k in range(1, n + 1):
                c = c_full(entries, i, j, k)
                if c:
                    coeff += sympy.Rational(c.numerator, c.denominator) * xs[k - 1]
            M[i - 1, j - 1] = coeff
    for i in range(1, n):
        b = xs[i - 1] if i <= 3 else xs[i - 1] / 2
        M[i - 1, n - 1] = b
        M[n - 1, i - 1] = -b
    # berkowitz stays polynomial-time on symbolic entries; the default
    # method does not finish on the 8x8 case
    return sympy.expand(M.det(method="berkowitz"))


def poly_to_sympy(p, xs=None):
    """Convert the library's Polynomial to a sympy expression."""
    xs = xs or sym_vars(p.nvars)
    total = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for t, e in enumerate(mono):
            if e:
                term *= xs[t] ** e
        total += term
    return total


def canonical_nullspace(rows, ncols):
    """Nullspace basis of sparse rows {col: value} with pivots on the latest
    columns: sympy's nullspace of the column-reversed matrix, reversed back,
    sorted by first nonzero position, as lists of Fractions."""
    dense = [[sympy.Rational(row.get(ncols - 1 - c, 0)) for c in range(ncols)]
             for row in rows]
    matrix = sympy.Matrix(dense) if dense else sympy.zeros(1, ncols)
    basis = [[Fraction(int(x.p), int(x.q)) for x in reversed(list(v))]
             for v in matrix.nullspace()]
    basis.sort(key=lambda v: next(i for i, x in enumerate(v) if x != 0))
    return basis



def jacobian_rank(texts, n):
    """Rank of the Jacobian of expressions in the library's grammar at a
    symbolic generic point.  sympy differentiates; each row is scaled by
    the lcm of its denominators (logarithms of products and powers
    expanded), which leaves the rank alone, and eliminated with an
    expand-to-zero pivot test."""
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {str(x): x for x in xs}
    names.update(ln=sympy.log, sqrt=sympy.sqrt, i=sympy.I)
    rows = []
    for text in texts:
        e = sympy.sympify(text.replace("^", "**"), locals=names)
        grad = [sympy.together(sympy.expand_log(sympy.diff(e, x), force=True)) for x in xs]
        den = sympy.lcm([sympy.fraction(z)[1] for z in grad])
        rows.append([sympy.expand(sympy.cancel(z * den)) for z in grad])
    return sympy.Matrix(rows).rank(iszerofunc=lambda z: sympy.expand(z) == 0)
