"""Invariants of the coadjoint representation.

The algebra acts on functions over the dual space through the first-order
operators whose coefficient matrix is the coadjoint matrix; a function is an
invariant when every operator annihilates it.  This module applies those
operators exactly, searches for polynomial invariants degree by degree,
detects semi-invariant weights, combines semi-invariants into genuine
invariants via integer nullspace vectors of the weight matrix, and builds
the bordered-determinant (Pfaffian) invariant for semidirect sums of a
three-dimensional simple algebra with a Heisenberg algebra.

Symbolic certification is used whenever the expression is a polynomial or a
quotient of polynomials; the numeric fallback (random points, normalized
residuals) only handles logarithms and non-integer or complex powers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .algebra import StructureConstants, coadjoint_matrix, jacobi_defect, num_invariants
from .expr import (
    ComplexRational,
    EvaluationError,
    Expression,
    Polynomial,
    Pow,
    Prod,
    Sum,
    as_polynomial,
    differentiate,
    evaluate,
    is_zero_expr,
    normalize,
    rational_form,
    to_text,
)


class StructureError(ValueError):
    """The algebra does not have the shape an operation requires."""


class SamplingError(RuntimeError):
    """Every random sample point hit a singularity."""


class SearchCapError(RuntimeError):
    """The search ansatz exceeded the monomial cap."""

    def __init__(self, requested: int, cap: int):
        super().__init__(
            f"ansatz needs {requested} monomials, above the cap of {cap}")
        self.requested = requested
        self.cap = cap


MONOMIAL_CAP = 20_000
WEIGHT_DENOMINATOR_BOUND = 10 ** 6


def apply_operator(sc: StructureConstants, i: int, e: Expression) -> Expression:
    """Image of e under the i-th coadjoint operator, normalized.

    The operator is sum_j M_ij d/dx_j with M_ij = sum_k C_ij^k x_k; it is a
    derivation, preserves polynomial degree, and is exact on polynomials.
    """
    n = sc.dim
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} out of range 1..{n}")
    rows = coadjoint_matrix(sc).row(i)
    p = as_polynomial(e, n)
    if p is not None:
        acc = Polynomial.zero(n)
        for j, m in rows.items():
            dp = p.diff(j)
            if not dp.is_zero:
                acc = acc + m * dp
        return acc
    parts: List[Expression] = []
    for j, m in rows.items():
        d = differentiate(e, j)
        if not is_zero_expr(d):
            parts.append(Prod((m, d)))
    if not parts:
        return Polynomial.zero(n)
    return normalize(Sum(tuple(parts)), n)


def is_invariant_symbolic(sc: StructureConstants, p: Polynomial) -> bool:
    """True iff every operator image of p normalizes to the zero polynomial."""
    for i in range(1, sc.dim + 1):
        if not is_zero_expr(apply_operator(sc, i, p)):
            return False
    return True


def _rational_invariant_symbolic(sc: StructureConstants, num: Polynomial,
                                 den: Polynomial) -> bool:
    """Exact annihilation of num/den: operator(num)*den == num*operator(den)."""
    for i in range(1, sc.dim + 1):
        dn = apply_operator(sc, i, num)
        dd = apply_operator(sc, i, den)
        if dn * den != num * dd:
            return False
    return True


def _sample_point(rng: random.Random, n: int) -> List[float]:
    return [1.0 + rng.random() for _ in range(n)]


def is_invariant_numeric(sc: StructureConstants, e: Expression, trials: int = 100,
                         tol: float = 1e-9, seed: int = 1,
                         ops: Optional[Sequence[int]] = None) -> Tuple[bool, float]:
    """Numeric annihilation test at random points in [1, 2]^n.

    At each point the residual of operator i is |sum_j M_ij d_j e| normalized
    by 1 + sum_j |M_ij d_j e|, so exact cancellations must hold to roughly
    machine precision regardless of the expression's scale.  Returns
    (pass, max normalized residual).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = sc.dim
    indices = list(ops) if ops is not None else list(range(1, n + 1))
    derivs = {j: differentiate(e, j) for j in range(1, n + 1)}
    M = coadjoint_matrix(sc)
    per_op = []
    for i in indices:
        rows = M.row(i)
        per_op.append((i, [(m, derivs[j]) for j, m in rows.items()
                           if not is_zero_expr(derivs[j])]))
    rng = random.Random(seed)
    max_residual = 0.0
    usable = 0
    for _ in range(trials):
        point = _sample_point(rng, n)
        try:
            for _, terms in per_op:
                total = 0j
                scale = 1.0
                for m, d in terms:
                    t = m.eval_complex(point) * evaluate(d, point)
                    total += t
                    scale += abs(t)
                residual = abs(total) / scale
                if residual > max_residual:
                    max_residual = residual
        except EvaluationError:
            continue
        usable += 1
    if usable == 0:
        raise SamplingError("all sample points were singular")
    return max_residual < tol, max_residual


# ---------------------------------------------------------------------------
# Polynomial invariant search
# ---------------------------------------------------------------------------

def _monomials_of_degree(n: int, d: int, weights: Sequence[Sequence[int]]) -> List[tuple]:
    """Exponent tuples of total degree d and weight 0 under every weight
    vector, in descending graded-lex order."""
    getters = [w.__getitem__ for w in weights]
    out = [tuple(map(combo.count, range(n)))
           for combo in itertools.combinations_with_replacement(range(n), d)
           if not any(sum(map(g, combo)) for g in getters)]
    out.sort(reverse=True)
    return out


def _diagonal_weights(sc: StructureConstants) -> Dict[int, List[int]]:
    """Operator index -> weights lambda of each nonzero diagonal operator
    sum_j lambda_j x_j d/dx_j (every [X_i, X_j] a multiple of X_j), scaled
    to integers, which leaves the zero set of lambda . a alone."""
    out = {}
    n = sc.dim
    for i in range(1, n + 1):
        brackets = [sc._table.get((i, j), {}) for j in range(1, n + 1)]
        if all(b.keys() <= {j} for j, b in enumerate(brackets, 1)):
            lam = [b.get(j, 0) for j, b in enumerate(brackets, 1)]
            if any(lam):
                out[i] = linalg.clear_to_integers(lam)
    return out


def _count_weight_zero(n: int, max_degree: int,
                       weights: Sequence[Sequence[int]]) -> int:
    """Number of monomials of degree 1..max_degree with weight 0 under every
    weight vector, counted by degree and weight without listing them, so a
    degree far above the cap is refused at once."""
    levels: List[Dict[tuple, int]] = [{} for _ in range(max_degree + 1)]
    zero = (0,) * len(weights)
    levels[0][zero] = 1
    for v in range(n):
        step = [w[v] for w in weights]
        for d in range(1, max_degree + 1):
            level = levels[d]
            for w, c in levels[d - 1].items():
                w = tuple(map(add, w, step))
                level[w] = level.get(w, 0) + c
    return sum(level.get(zero, 0) for level in levels[1:])


def polynomial_invariant_search(sc: StructureConstants, max_degree: int) -> List[Polynomial]:
    """Basis of the polynomial invariants of degree 1..max_degree.

    The annihilation conditions form an exact homogeneous linear system on
    the monomial coefficients, split by degree as the operators preserve it.
    A diagonal operator sum_j lambda_j x_j d/dx_j maps x^a to (lambda . a) x^a,
    so every invariant lives on the monomials of weight 0 under each diagonal
    operator: only those are columns, and the diagonal operators' rows, zero
    there, are not assembled.  The basis is the canonical one of
    linalg.sparse_nullspace (reduced echelon form over the monomials in
    graded-lex order, pivot coefficient 1), which the dropped columns, zero
    in every invariant, leave unchanged.  Rows are integer: each operator is
    scaled by the lcm of its constants' denominators.  Constants are
    excluded.  Raises SearchCapError instead of truncating when the weight-0
    ansatz would exceed the monomial cap.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    n = sc.dim
    grading = _diagonal_weights(sc)
    weights = list(grading.values())
    total = _count_weight_zero(n, max_degree, weights)
    if total > MONOMIAL_CAP:
        raise SearchCapError(total, MONOMIAL_CAP)
    # terms[j]: [(k, i, C_ij^k * D_i)], 0-based, where D_i is the lcm of the
    # denominators of operator i; scaling a row by a positive integer leaves
    # its nullspace alone
    terms: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        if i + 1 in grading:
            continue
        consts = [(j, k - 1, c) for j in range(n)
                  for k, c in sc._table.get((i + 1, j + 1), {}).items()]
        den = lcm(*(c.denominator for _, _, c in consts))
        for j, k, c in consts:
            terms[j].append((k, i, c.numerator * (den // c.denominator)))
    found: List[Polynomial] = []
    for d in range(1, max_degree + 1):
        monos = _monomials_of_degree(n, d, weights)
        # a row is keyed by operator i and output monomial b, which need not
        # have weight 0 and so has no column: code(b) * n + i, with
        # code(b) = sum_v b_v (d+1)^v
        pw = [(d + 1) ** v for v in range(n)]
        shifts = [[((pw[k] - pw[j]) * n + i, c) for k, i, c in terms[j]]
                  for j in range(n)]
        rows: Dict[int, Dict[int, int]] = {}
        for cm, mono in enumerate(monos):
            code = sum(map(mul, mono, pw)) * n
            for j, ej in enumerate(mono):
                if ej == 0:
                    continue
                for shift, c in shifts[j]:
                    row = rows.setdefault(code + shift, {})
                    row[cm] = row.get(cm, 0) + c * ej
        # a row without cancelled entries is passed on as it is, so the
        # system is not held twice
        nonzero = (row if all(row.values()) else {c: v for c, v in row.items() if v}
                   for row in rows.values())
        int_rows = [row for row in nonzero if row]
        for vec in linalg.sparse_nullspace(int_rows, len(monos)):
            found.append(Polynomial(n, {monos[idx]: coeff
                                        for idx, coeff in enumerate(vec) if coeff}))
    return found


# ---------------------------------------------------------------------------
# Semi-invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiInvariant:
    """An expression with its eigenvalues under selected operators.

    For every recorded (i, w): operator i maps the expression to w times
    itself.  A genuine invariant is the all-zero-weights case.
    """

    expr: Expression
    weights: Dict[int, Fraction] = field(default_factory=dict)


def _exact_ratio(q: Polynomial, p: Polynomial) -> Optional[Fraction]:
    """lambda with q == lambda * p, or None."""
    if q.is_zero:
        return Fraction(0)
    if p.is_zero:
        return None
    lead = p.leading_monomial()
    c = q.coefficient(lead)
    if c == 0:
        return None
    lam = c / p.coefficient(lead)
    return lam if q == p * lam else None


def semi_invariant_weights(sc: StructureConstants, e: Expression,
                           ops: Sequence[int], trials: int = 10,
                           tol: float = 1e-9, seed: int = 1) -> Optional[SemiInvariant]:
    """Weights lambda_i with operator_i(e) = lambda_i * e, or None.

    Polynomials and quotients of polynomials are certified exactly; otherwise
    the eigenvalue is estimated at random points, rationalized by continued
    fractions (denominator bound 10^6) and re-verified at fresh points.
    """
    if is_zero_expr(e):
        raise ValueError("expression must be nonzero")
    n = sc.dim
    weights: Dict[int, Fraction] = {}
    p = as_polynomial(e, n)
    rat = None if p is not None else rational_form(e, n)
    for i in ops:
        img = apply_operator(sc, i, e)
        if p is not None:
            q = as_polynomial(img, n)
            lam = _exact_ratio(q, p) if q is not None else None
            if lam is None:
                return None
            weights[i] = lam
            continue
        if rat is not None:
            num, den = rat
            dn = apply_operator(sc, i, num)
            dd = apply_operator(sc, i, den)
            # (num/den)' = (dn*den - num*dd)/den^2 ; proportional to num/den
            # exactly when dn*den - num*dd == lambda * num * den.
            lam = _exact_ratio(dn * den - num * dd, num * den)
            if lam is None:
                return None
            weights[i] = lam
            continue
        lam = _numeric_weight(sc, e, img, i, n, trials, tol, seed)
        if lam is None:
            return None
        weights[i] = lam
    return SemiInvariant(expr=e, weights=weights)


def _numeric_weight(sc: StructureConstants, e: Expression, img: Expression,
                    i: int, n: int, trials: int, tol: float,
                    seed: int) -> Optional[Fraction]:
    rng = random.Random(seed * 1_000_003 + i)
    estimates = []
    attempts = 0
    while len(estimates) < trials and attempts < 10 * trials:
        attempts += 1
        point = _sample_point(rng, n)
        try:
            v = evaluate(e, point)
            if abs(v) < 1e-12:
                continue
            w = evaluate(img, point)
        except EvaluationError:
            continue
        estimates.append(w / v)
    if len(estimates) < max(3, trials // 2):
        return None
    mean = sum(estimates) / len(estimates)
    if any(abs(est - mean) > tol * (1.0 + abs(mean)) for est in estimates):
        return None
    if abs(mean.imag) > tol * (1.0 + abs(mean)):
        return None
    lam = Fraction(mean.real).limit_denominator(WEIGHT_DENOMINATOR_BOUND)
    # re-verify at fresh points
    verified = 0
    for _ in range(10 * trials):
        if verified >= trials:
            break
        point = _sample_point(rng, n)
        try:
            v = evaluate(e, point)
            w = evaluate(img, point)
        except EvaluationError:
            continue
        expected = complex(lam) * v
        if abs(w - expected) > tol * (1.0 + abs(expected)):
            return None
        verified += 1
    if verified < 3:
        return None
    return lam


def combine_semi_invariants(items: Sequence[SemiInvariant],
                            ops: Sequence[int]) -> List[Expression]:
    """Zero-weight products F_1^a_1 ... F_m^a_m from the weight matrix.

    The exponent vectors form an integer basis of the nullspace of the
    weight matrix (rows = ops, columns = items): the canonical basis of
    linalg.sparse_nullspace, whose pivots fall on the later items, cleared
    to coprime integers, first nonzero entry positive.  Every returned
    product has exactly zero weight for each operator in ops (checked).
    A product that is a constant (x7 * x7^-1, from a repeated item) is
    dropped.
    """
    items = list(items)
    for it in items:
        for i in ops:
            if i not in it.weights:
                raise ValueError(f"item is missing a weight for operator {i}")
    if not items:
        return []
    rows = [[it.weights[i] for it in items] for i in ops]
    int_rows = [{c: v for c, v in enumerate(linalg.clear_to_integers(row)) if v}
                for row in rows]
    basis = linalg.sparse_nullspace(int_rows, len(items))
    out: List[Expression] = []
    for vec in basis:
        exps = linalg.clear_to_integers(vec)
        for i_op, row in zip(ops, rows):
            assert sum(f * a for f, a in zip(row, exps)) == 0
        factors: List[Expression] = []
        for it, a in zip(items, exps):
            if a == 0:
                continue
            if a == 1:
                factors.append(it.expr)
            else:
                factors.append(Pow(it.expr, ComplexRational(a)))
        if not factors:
            continue
        combined = factors[0] if len(factors) == 1 else Prod(tuple(factors))
        product = normalize(combined)
        rat = rational_form(product)
        if rat is None or _exact_ratio(*rat) is None:  # drop constants
            out.append(product)
    return out


# ---------------------------------------------------------------------------
# Bordered-determinant invariant for s acted on a Heisenberg algebra
# ---------------------------------------------------------------------------

def _check_heisenberg_shape(sc: StructureConstants, levi_dim: int) -> None:
    n = sc.dim
    if levi_dim != 3:
        raise StructureError("only a 3-dimensional simple factor is supported")
    if n < 6 or n % 2 != 0:
        raise StructureError(
            "need an even dimension >= 6: 3 simple generators, an even number "
            "of Heisenberg generators, and a central generator last")
    h_lo, h_hi = 4, n - 1
    # the last generator must be central
    for a in range(1, n + 1):
        if a != n and sc.bracket_basis(a, n):
            raise StructureError(f"generator {n} is not central: [X{a}, X{n}] != 0")
    # simple factor closes on itself and is 3-dimensional
    rows = []
    for i in range(1, 4):
        for j in range(i + 1, 4):
            coeffs = sc.bracket_basis(i, j)
            if any(k > 3 for k in coeffs):
                raise StructureError("the first three generators do not close")
            rows.append([coeffs.get(k, Fraction(0)) for k in range(1, 4)])
    if linalg.rank(rows) != 3:
        raise StructureError("the first three generators do not span a simple factor")
    # the simple factor maps Heisenberg generators into Heisenberg generators
    for i in range(1, 4):
        for a in range(h_lo, h_hi + 1):
            coeffs = sc.bracket_basis(i, a)
            if any(k < h_lo or k > h_hi for k in coeffs):
                raise StructureError(
                    f"[X{i}, X{a}] leaves the span of the Heisenberg generators")
    # Heisenberg part: brackets land on the center, with a nondegenerate pairing
    m = h_hi - h_lo + 1
    omega = [[Fraction(0)] * m for _ in range(m)]
    for a in range(h_lo, h_hi + 1):
        for b in range(a + 1, h_hi + 1):
            coeffs = sc.bracket_basis(a, b)
            if any(k != n for k in coeffs):
                raise StructureError(f"[X{a}, X{b}] is not a multiple of X{n}")
            v = coeffs.get(n, Fraction(0))
            omega[a - h_lo][b - h_lo] = v
            omega[b - h_lo][a - h_lo] = -v
    if linalg.rank(omega) != m:
        raise StructureError("the Heisenberg pairing is degenerate")


def _pfaffian(entries: List[List[Polynomial]], idx: Tuple[int, ...],
              nvars: int) -> Polynomial:
    if not idx:
        return Polynomial.constant(nvars, 1)
    i0 = idx[0]
    rest = idx[1:]
    acc = Polynomial.zero(nvars)
    for t, j in enumerate(rest):
        a = entries[i0][j]
        if a.is_zero:
            continue
        sub = tuple(x for x in rest if x != j)
        term = a * _pfaffian(entries, sub, nvars)
        acc = acc + term if t % 2 == 0 else acc - term
    return acc


def heisenberg_invariant(sc: StructureConstants, levi_dim: int = 3) -> Polynomial:
    """Pfaffian of the bordered coadjoint block, the non-central invariant.

    For an algebra shaped as a 3-dimensional simple factor acting on a
    Heisenberg algebra (generators ordered: simple, Heisenberg, center), the
    coadjoint block on the first n-1 generators is bordered with the column
    (x1, x2, x3, x4/2, ..., x_{n-1}/2), its negation as the last row, and a
    zero corner.  The determinant of this even skew matrix is a perfect
    square; its polynomial square root (the Pfaffian, sign fixed so the
    graded-lex leading coefficient is positive) is returned.

    Raises StructureError when the algebra does not have this shape.
    """
    _check_heisenberg_shape(sc, levi_dim)
    n = sc.dim
    M = coadjoint_matrix(sc)
    entries = [[Polynomial.zero(n) for _ in range(n)] for _ in range(n)]
    for i in range(1, n):
        for j in range(1, n):
            entries[i - 1][j - 1] = M.entry(i, j)
    for i in range(1, n):
        b = Polynomial.variable(n, i)
        if i >= 4:
            b = b * Fraction(1, 2)
        entries[i - 1][n - 1] = b
        entries[n - 1][i - 1] = -b
    pf = _pfaffian(entries, tuple(range(n)), n)
    if pf.is_zero:
        raise StructureError("the bordered determinant vanishes identically")
    if pf.coefficient(pf.leading_monomial()) < 0:
        pf = -pf
    return pf


# ---------------------------------------------------------------------------
# Functional independence and label counting
# ---------------------------------------------------------------------------

def functional_independence_rank(exprs: Sequence[Expression], n: int,
                                 trials: int = 5, seed: int = 1) -> int:
    """Max numeric rank of the Jacobian [dF_a/dx_j] at random points.

    Singular values below 1e-8 times the largest are treated as zero.
    """
    if not exprs:
        return 0
    derivs = [[differentiate(e, j) for j in range(1, n + 1)] for e in exprs]
    rng = random.Random(seed)
    best = 0
    usable = 0
    for _ in range(max(1, trials)):
        point = _sample_point(rng, n)
        try:
            rows = [[evaluate(d, point) for d in row] for row in derivs]
        except EvaluationError:
            continue
        usable += 1
        J = np.array(rows, dtype=complex)
        s = np.linalg.svd(J, compute_uv=False)
        if s.size and s[0] > 0:
            r = int((s > 1e-8 * s[0]).sum())
            best = max(best, r)
    if usable == 0:
        raise SamplingError("all sample points were singular")
    return best


def missing_label_count(dim_big, n_big, dim_sub, n_sub, l_common) -> Fraction:
    """Internal label count for a subalgebra reduction:
    (dim_big - N_big - dim_sub - N_sub)/2 + l_common."""
    vals = [dim_big, n_big, dim_sub, n_sub, l_common]
    if any(Fraction(v) < 0 for v in vals):
        raise ValueError("all inputs must be nonnegative")
    return (Fraction(dim_big) - Fraction(n_big) - Fraction(dim_sub)
            - Fraction(n_sub)) / 2 + Fraction(l_common)


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantCheck:
    expression: str
    mode: str              # "symbolic" or "numeric"
    passed: bool
    residual: float = 0.0  # max normalized residual (numeric mode)
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    name: str
    dim: int
    jacobi_ok: bool
    n_invariants: int
    checks: Tuple[InvariantCheck, ...]
    independence_rank: int
    notes: Tuple[str, ...] = ()

    @property
    def expected_typo(self) -> bool:
        return any("suspected-typo" in note for note in self.notes)

    @property
    def expected_failure(self) -> bool:
        """True when a failure would be anticipated by the record's notes
        (a suspected-typo row, or a deliberately corrupted test record)."""
        return self.expected_typo or any(
            "expect-jacobi-fail" in note for note in self.notes)

    @property
    def passed(self) -> bool:
        return self.jacobi_ok and all(c.passed for c in self.checks)


def verify_algebra(sc: StructureConstants, claimed: Sequence[Expression],
                   name: str = "", notes: Sequence[str] = (),
                   trials: int = 100, tol: float = 1e-9, seed: int = 1,
                   rank_trials: int = 5) -> VerificationReport:
    """Check one algebra: Jacobi, invariant count, per-expression annihilation
    (symbolic where possible), functional independence.  Never raises on a
    failing invariant; failures are recorded in the report."""
    jac_ok = not jacobi_defect(sc)
    n_inv = num_invariants(sc, trials=rank_trials, seed=seed)
    checks: List[InvariantCheck] = []
    passing: List[Expression] = []
    for e in claimed:
        text = to_text(e)
        try:
            p = as_polynomial(e, sc.dim)
            if p is not None:
                ok = is_invariant_symbolic(sc, p)
                checks.append(InvariantCheck(text, "symbolic", ok))
            else:
                rat = rational_form(e, sc.dim)
                if rat is not None:
                    ok = _rational_invariant_symbolic(sc, rat[0], rat[1])
                    checks.append(InvariantCheck(text, "symbolic", ok))
                else:
                    ok, resid = is_invariant_numeric(sc, e, trials=trials,
                                                     tol=tol, seed=seed)
                    checks.append(InvariantCheck(text, "numeric", ok, residual=resid))
        except (EvaluationError, SamplingError, ValueError) as exc:
            ok = False
            checks.append(InvariantCheck(text, "numeric", False, detail=str(exc)))
        if ok:
            passing.append(e)
    try:
        indep = functional_independence_rank(passing, sc.dim, trials=5, seed=seed)
    except SamplingError:
        indep = 0
    return VerificationReport(
        name=name, dim=sc.dim, jacobi_ok=jac_ok, n_invariants=n_inv,
        checks=tuple(checks), independence_rank=indep, notes=tuple(notes))
