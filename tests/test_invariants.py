"""Coadjoint operators, annihilation checks, invariant search, weights,
combinations, the bordered-determinant invariant, independence and label
counts."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from coadinv.algebra import StructureConstants
from coadinv import invariants
from coadinv.catalog import instantiate
from coadinv.expr import (
    ComplexRational,
    Polynomial,
    Var,
    as_polynomial,
    differentiate,
    evaluate,
    parse,
    rational_form,
    to_text,
)
from coadinv.invariants import (
    SamplingError,
    SearchCapError,
    SemiInvariant,
    StructureError,
    apply_operator,
    combine_semi_invariants,
    functional_independence_rank,
    heisenberg_invariant,
    is_invariant_numeric,
    is_invariant_symbolic,
    missing_label_count,
    polynomial_invariant_search,
    semi_invariant_weights,
    verify_algebra,
)

from .conftest import abelian
from . import oracle


def _poly(text, n, params=None):
    return as_polynomial(parse(text, n, params or {}), n)


class TestApplyOperator:
    def test_sl2_weight_pair(self, sl2):
        img = apply_operator(sl2, 1, _poly("x2*x3", 3))
        assert isinstance(img, Polynomial) and img.is_zero

    def test_L81_operator_eight_matches_oracle(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        rng = random.Random(7)
        n = 8
        terms = {}
        for _ in range(6):
            m = tuple(rng.randint(0, 2) for _ in range(n))
            terms[m] = F(rng.randint(-5, 5))
        p = Polynomial(n, terms)
        img = apply_operator(sc, 8, p)
        xs = oracle.sym_vars(n)
        expected = oracle.operator_image(sc.entries, n, 8, oracle.poly_to_sympy(p, xs), xs)
        assert sympy.expand(oracle.poly_to_sympy(as_polynomial(img, n), xs) - expected) == 0
        # the eighth operator acts as -(x4 d4 + x5 d5 + x6 d6 + 2 x7 d7)
        direct = -(
            Polynomial.variable(n, 4) * p.diff(4)
            + Polynomial.variable(n, 5) * p.diff(5)
            + Polynomial.variable(n, 6) * p.diff(6)
            + 2 * Polynomial.variable(n, 7) * p.diff(7)
        )
        assert as_polynomial(img, n) == direct

    def test_L81_scaling_eigenvector(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        I1 = _poly("x4^2+x5^2+x6^2", 8)
        img = as_polynomial(apply_operator(sc, 8, I1), 8)
        assert img == I1 * F(-2)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_derivation_and_linearity(self, catalog_by_name, data):
        sc, _ = instantiate(catalog_by_name["L_6,2"])
        n = 6
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        mono = st.tuples(*[st.integers(0, 2) for _ in range(n)])
        polys = st.dictionaries(mono, coeff, min_size=1, max_size=4).map(
            lambda d: Polynomial(n, d))
        f = data.draw(polys)
        g = data.draw(polys)
        a = data.draw(coeff)
        b = data.draw(coeff)
        i = data.draw(st.integers(1, n))
        Xf = as_polynomial(apply_operator(sc, i, f), n)
        Xg = as_polynomial(apply_operator(sc, i, g), n)
        assert as_polynomial(apply_operator(sc, i, f * g), n) == Xf * g + f * Xg
        assert as_polynomial(apply_operator(sc, i, a * f + b * g), n) == a * Xf + b * Xg


class TestInvariantChecks:
    def test_sl2_casimir_symbolic(self, sl2):
        cas = _poly("x1^2 + 4*x2*x3", 3)
        assert is_invariant_symbolic(sl2, cas)
        assert oracle.annihilated_by_all(sl2.entries, 3, oracle.poly_to_sympy(cas))

    def test_central_coordinate(self, heisenberg1):
        assert is_invariant_symbolic(heisenberg1, Polynomial.variable(3, 3))

    def test_non_invariant(self, sl2):
        assert not is_invariant_symbolic(sl2, Polynomial.variable(3, 1))
        img = as_polynomial(apply_operator(sl2, 2, Polynomial.variable(3, 1)), 3)
        assert img == -2 * Polynomial.variable(3, 2)

    def test_L71_rational_numeric(self, catalog_by_name):
        sc, exprs = instantiate(catalog_by_name["L_7,1"])
        ok, resid = is_invariant_numeric(sc, exprs[0], trials=100, tol=1e-9, seed=1)
        assert ok and resid < 1e-9

    def test_constant_passes_with_zero_residual(self, sl2):
        from coadinv.expr import Const
        ok, resid = is_invariant_numeric(sl2, Const(ComplexRational(1)), trials=5)
        assert ok and resid == 0.0

    def test_L81_x7_fails(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        ok, resid = is_invariant_numeric(sc, parse("x7", 8, {}), trials=20)
        assert not ok and resid > 1e-3

    def test_everywhere_singular_expression_raises(self, sl2):
        import pytest as _pytest

        e = parse("x1/(x2 - x2)", 3, {})  # denominator is identically zero
        with _pytest.raises(SamplingError):
            is_invariant_numeric(sl2, e, trials=5)

    def test_validation_of_trials_and_tol(self, sl2):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            is_invariant_numeric(sl2, parse("x1", 3, {}), trials=0)
        with _pytest.raises(ValueError):
            is_invariant_numeric(sl2, parse("x1", 3, {}), tol=0.0)


class TestSearch:
    def test_abelian_degree_one(self):
        basis = polynomial_invariant_search(abelian(2), 1)
        assert basis == [Polynomial.variable(2, 1), Polynomial.variable(2, 2)]

    def test_sl2_degree_two(self, sl2):
        basis = polynomial_invariant_search(sl2, 2)
        assert basis == [_poly("x1^2 + 4*x2*x3", 3)]
        # independent oracle: the annihilation system has a 1-dim nullspace
        # in degree 2 and none in degree 1
        assert oracle.invariant_space_dim(sl2.entries, 3, 2) == 1
        assert oracle.invariant_space_dim(sl2.entries, 3, 1) == 0

    def test_L61_degree_two_contains_table_invariants(self, catalog_by_name):
        sc, exprs = instantiate(catalog_by_name["L_6,1"])
        basis = polynomial_invariant_search(sc, 2)
        assert len(basis) == 2
        from coadinv import linalg

        monos = sorted({m for b in basis for m in b.terms}
                       | {m for e in exprs for m in as_polynomial(e, 6).terms})
        def vec(p):
            return [p.coefficient(m) for m in monos]
        space = [vec(b) for b in basis]
        base_rank = linalg.rank(space)
        for e in exprs:
            assert linalg.rank(space + [vec(as_polynomial(e, 6))]) == base_rank

    def test_no_linear_invariants_for_sl2(self, sl2):
        assert polynomial_invariant_search(sl2, 1) == []

    def test_cap_is_enforced(self):
        with pytest.raises(SearchCapError) as err:
            polynomial_invariant_search(abelian(8), 9)
        assert err.value.cap == 20_000
        assert err.value.requested > 20_000

    def test_degree_validation(self, sl2):
        with pytest.raises(ValueError):
            polynomial_invariant_search(sl2, 0)

    def test_cap_counts_every_monomial(self):
        with pytest.raises(SearchCapError) as err:
            polynomial_invariant_search(abelian(8), 9)
        # monomials of degree 1..9 in 8 variables: C(17, 9) - 1
        assert err.value.requested == 24_309

    def test_cap_counts_weight_zero_monomials(self, catalog_by_name, monkeypatch):
        # L_8,7 has two diagonal operators; the cap applies to the monomials
        # of weight 0 under both, counted here by applying the operators
        sc, _ = instantiate(catalog_by_name["L_8,7"])
        diagonal = _diagonal_operators(sc)
        assert len(diagonal) == 2
        monos = [Polynomial(8, {m: 1}) for d in range(1, 4)
                 for m in _exponent_tuples(8, d)]
        kept = sum(1 for m in monos
                   if all(apply_operator(sc, i, m).is_zero for i in diagonal))
        assert 0 < kept < len(monos) == 164
        monkeypatch.setattr(invariants, "MONOMIAL_CAP", kept - 1)
        with pytest.raises(SearchCapError) as err:
            polynomial_invariant_search(sc, 3)
        assert (err.value.requested, err.value.cap) == (kept, kept - 1)
        monkeypatch.setattr(invariants, "MONOMIAL_CAP", kept)
        polynomial_invariant_search(sc, 3)  # exactly at the cap: no error

    def test_weights_with_mixed_denominators(self):
        # X4 acts on the abelian ideal <X1, X2, X3> with weights (1, 1/2, -1):
        # x2^2*x3 has weight 0, which the numerators (1, 1, -1) would miss
        entries = {(1, 4, 1): F(-1), (2, 4, 2): F(-1, 2), (3, 4, 3): F(1)}
        sc = StructureConstants(4, entries)
        basis = polynomial_invariant_search(sc, 3)
        assert [p.to_string() for p in basis] == ["x1*x3", "x2^2*x3"]
        for d in range(1, 4):
            found = sum(1 for p in basis if p.total_degree() == d)
            assert found == oracle.invariant_space_dim(entries, 4, d), d

    @pytest.mark.parametrize("name", ["L_5,1", "L_6,1", "L_6,2", "L_6,3", "L_6,4",
                                      "L_7,3", "L_7,5", "L_8,7", "L_8,12"])
    def test_fractional_constants_match_oracle(self, catalog_by_name, name):
        # rescaling the basis by X_i -> s_i X_i with rational s_i gives
        # C_ij^k -> s_i s_j / s_k C_ij^k, mostly with fractional constants;
        # a diagonal operator's weights scale by s_i, so they turn
        # fractional too
        sc, _ = instantiate(catalog_by_name[name])
        rng = random.Random(name)
        s = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
             for _ in range(sc.dim)]
        entries = {(i, j, k): s[i - 1] * s[j - 1] / s[k - 1] * c
                   for (i, j, k), c in sc.entries.items()}
        assert any(c.denominator > 1 for c in entries.values())
        scaled = StructureConstants(sc.dim, entries)
        diagonal = _diagonal_operators(scaled)
        assert len(diagonal) == GRADED[name]
        basis = polynomial_invariant_search(scaled, 3)
        for p in basis:
            assert is_invariant_symbolic(scaled, p)
            for m in p.terms:
                mono = Polynomial(sc.dim, {m: 1})
                assert all(apply_operator(scaled, i, mono).is_zero for i in diagonal)
        for d in range(1, 4):
            found = sum(1 for p in basis if p.total_degree() == d)
            assert found == oracle.invariant_space_dim(entries, sc.dim, d), d


# number of nonzero diagonal operators sum_j lambda_j x_j d/dx_j
GRADED = {"L_5,1": 1, "L_6,1": 0, "L_6,2": 1, "L_6,3": 2, "L_6,4": 1,
          "L_7,3": 2, "L_7,5": 2, "L_8,7": 2, "L_8,12": 2}


def _diagonal_operators(sc):
    """Operators that map every x_j to a multiple of x_j, not all to 0."""
    out = []
    for i in range(1, sc.dim + 1):
        images = [apply_operator(sc, i, Polynomial.variable(sc.dim, j))
                  for j in range(1, sc.dim + 1)]
        if (all(set(img.terms) <= {tuple(int(v == j) for v in range(sc.dim))}
                for j, img in enumerate(images))
                and not all(img.is_zero for img in images)):
            out.append(i)
    return out


def _exponent_tuples(n, d):
    return [tuple(combo.count(v) for v in range(n))
            for combo in itertools.combinations_with_replacement(range(n), d)]


class TestWeights:
    def test_L81_weights(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        w1 = semi_invariant_weights(sc, parse("x4^2+x5^2+x6^2", 8, {}), [8])
        w2 = semi_invariant_weights(sc, parse("x1*x4+x2*x5+x3*x6", 8, {}), [8])
        w3 = semi_invariant_weights(sc, parse("x7", 8, {}), [8])
        assert abs(w1.weights[8]) == 2
        assert abs(w2.weights[8]) == 1
        assert abs(w3.weights[8]) == 2  # equals p at the default p=2
        # global orientation is shared
        assert w1.weights[8] / w2.weights[8] == 2

    def test_invariant_has_zero_weights(self, catalog_by_name):
        sc, exprs = instantiate(catalog_by_name["L_6,1"])
        semi = semi_invariant_weights(sc, exprs[0], [1, 2, 3, 4, 5, 6])
        assert semi is not None
        assert all(v == 0 for v in semi.weights.values())

    def test_not_semi_invariant(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        assert semi_invariant_weights(sc, parse("x4+x7", 8, {}), [8]) is None

    def test_numeric_route_on_sqrt(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        e = parse("sqrt(x4^2+x5^2+x6^2)", 8, {})
        semi = semi_invariant_weights(sc, e, [8])
        assert semi is not None and semi.weights[8] == -1

    def test_rational_route(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        e = parse("(x4^2+x5^2+x6^2)/x7", 8, {})
        semi = semi_invariant_weights(sc, e, [8])
        assert semi is not None and semi.weights[8] == 0

    def test_zero_expression_rejected(self, sl2):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            semi_invariant_weights(sl2, Polynomial.zero(3), [1])

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 4))
    def test_weight_of_powers(self, catalog_by_name, k):
        # F^k has weight k*lambda
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        base = _poly("x4^2+x5^2+x6^2", 8)
        semi = semi_invariant_weights(sc, base ** k, [8])
        assert semi.weights[8] == -2 * k

    def test_weight_additivity_on_products(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        f = _poly("x4^2+x5^2+x6^2", 8)
        g = _poly("x7", 8)
        wf = semi_invariant_weights(sc, f, [8]).weights[8]
        wg = semi_invariant_weights(sc, g, [8]).weights[8]
        wfg = semi_invariant_weights(sc, f * g, [8]).weights[8]
        assert wfg == wf + wg


class TestCombine:
    def test_lemma_pattern(self):
        f = SemiInvariant(Var(1), {1: F(-2)})
        g = SemiInvariant(Var(2), {1: F(-1)})
        out = combine_semi_invariants([f, g], [1])
        assert len(out) == 1
        assert to_text(out[0]) == "x1*x2^-2"

    def test_single_zero_weight_item_unchanged(self):
        f = SemiInvariant(Var(3), {1: F(0)})
        out = combine_semi_invariants([f], [1])
        assert out == [Var(3)]

    def test_missing_weight_rejected(self):
        f = SemiInvariant(Var(1), {1: F(1)})
        with pytest.raises(ValueError):
            combine_semi_invariants([f], [1, 2])

    def test_empty_nullspace_gives_empty_list(self):
        f = SemiInvariant(Var(1), {1: F(1)})
        assert combine_semi_invariants([f], [1]) == []

    def test_L81_products_match_published_pair(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        items = [
            semi_invariant_weights(sc, parse("x4^2+x5^2+x6^2", 8, {}), [8]),
            semi_invariant_weights(sc, parse("x1*x4+x2*x5+x3*x6", 8, {}), [8]),
            semi_invariant_weights(sc, parse("x7", 8, {}), [8]),
        ]
        out = combine_semi_invariants(items, [8])
        assert len(out) == 2
        # both are genuine invariants of the full algebra
        for e in out:
            num, den = rational_form(e, 8)
            for i in range(1, 9):
                dn = as_polynomial(apply_operator(sc, i, num), 8)
                dd = as_polynomial(apply_operator(sc, i, den), 8)
                assert dn * den == num * dd
        # and they are proportional, in the logarithmic-gradient sense, to
        # I1^p/I3^2 and I2^p/I3 at p=2
        J1 = parse("(x4^2+x5^2+x6^2)^2 / x7^2", 8, {})
        J2 = parse("(x1*x4+x2*x5+x3*x6)^2 / x7", 8, {})
        assert _log_gradient_parallel(out[0], J1, 8)
        assert _log_gradient_parallel(out[1], J2, 8)

    def test_outputs_pass_numeric_invariance_on_ops(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"])
        items = [
            semi_invariant_weights(sc, parse("x4^2+x5^2+x6^2", 8, {}), [8]),
            semi_invariant_weights(sc, parse("x7", 8, {}), [8]),
        ]
        for e in combine_semi_invariants(items, [8]):
            ok, resid = is_invariant_numeric(sc, e, trials=50, tol=1e-9, ops=[8])
            assert ok, resid


def _log_gradient_parallel(f, g, n, points=10, tol=1e-8, seed=5):
    """grad(log f) and grad(log g) are parallel at `points` random spots."""
    rng = random.Random(seed)
    df = [differentiate(f, j) for j in range(1, n + 1)]
    dg = [differentiate(g, j) for j in range(1, n + 1)]
    for _ in range(points):
        x = [1.0 + rng.random() for _ in range(n)]
        fv = evaluate(f, x)
        gv = evaluate(g, x)
        u = [evaluate(d, x) / fv for d in df]
        v = [evaluate(d, x) / gv for d in dg]
        # all 2x2 minors of the two gradients must vanish
        for a in range(n):
            for b in range(a + 1, n):
                minor = u[a] * v[b] - u[b] * v[a]
                scale = 1 + abs(u[a] * v[b]) + abs(u[b] * v[a])
                if abs(minor) / scale > tol:
                    return False
    return True


class TestHeisenbergInvariant:
    def test_L82_pfaffian_squares_to_bordered_determinant(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,2"])
        pf = heisenberg_invariant(sc)
        det = oracle.bordered_determinant(sc.entries, 8)
        xs = oracle.sym_vars(8)
        assert sympy.expand(oracle.poly_to_sympy(pf, xs) ** 2 - det) == 0
        assert is_invariant_symbolic(sc, pf)
        assert pf.total_degree() == 4

    def test_L62_matches_table_invariant(self, catalog_by_name):
        sc, exprs = instantiate(catalog_by_name["L_6,2"])
        pf = heisenberg_invariant(sc)
        assert is_invariant_symbolic(sc, pf)
        table = as_polynomial(exprs[0], 6)
        assert pf == table * 2  # same invariant, fixed normalization

    def test_L819_pfaffian_is_the_published_quartic(self, catalog_by_name):
        # nonstandard pairing ([X4,X7]=X8, [X5,X6]=-3X8), yet the bordered
        # determinant reproduces the published invariant exactly
        sc, exprs = instantiate(catalog_by_name["L_8,19"])
        pf = heisenberg_invariant(sc)
        assert pf == as_polynomial(exprs[1], 8)

    def test_L86_pfaffian_factors_into_published_invariants(self, catalog_by_name):
        # the simple factor acts trivially on one Heisenberg pair; the
        # Pfaffian comes out as the product of the two published invariants
        sc, exprs = instantiate(catalog_by_name["L_8,6"])
        pf = heisenberg_invariant(sc)
        assert pf == as_polynomial(exprs[0], 8) * as_polynomial(exprs[1], 8)

    def test_homogeneous_scaling(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,2"])
        pf = heisenberg_invariant(sc)
        rng = random.Random(3)
        x = [F(rng.randint(1, 9)) for _ in range(8)]
        for t in (F(2), F(3, 2)):
            scaled = pf.eval_exact([t * v for v in x])
            assert scaled == t ** pf.total_degree() * pf.eval_exact(x)

    def test_structure_errors(self, catalog_by_name, sl2):
        sc81, _ = instantiate(catalog_by_name["L_8,1"])
        with pytest.raises(StructureError):
            heisenberg_invariant(sc81)
        sc72, _ = instantiate(catalog_by_name["L_7,2"])
        with pytest.raises(StructureError):
            heisenberg_invariant(sc72)  # odd dimension, no Heisenberg block
        with pytest.raises(StructureError):
            heisenberg_invariant(sl2)
        with pytest.raises(StructureError):
            heisenberg_invariant(sc81, levi_dim=4)

    def test_degenerate_pairing_rejected(self, catalog_by_name):
        # L_8,6 without the [4,5]=X8 bracket has a degenerate pairing
        rec = catalog_by_name["L_8,6"]
        sc, _ = instantiate(rec)
        ent = dict(sc.entries)
        del ent[(4, 5, 8)]
        broken = StructureConstants(8, ent)
        with pytest.raises(StructureError):
            heisenberg_invariant(broken)


class TestIndependence:
    def test_linear_dependence(self):
        exprs = [parse(t, 2, {}) for t in ("x1", "x2", "x1+x2")]
        assert functional_independence_rank(exprs, 2) == 2

    def test_L61_pair(self, catalog_by_name):
        sc, exprs = instantiate(catalog_by_name["L_6,1"])
        assert functional_independence_rank(exprs, 6) == 2

    def test_functional_dependence(self):
        f = parse("x1*x4+x2*x5+x3*x6", 6, {})
        f2 = as_polynomial(f, 6) ** 2
        assert functional_independence_rank([f, f2], 6) == 1

    def test_empty(self):
        assert functional_independence_rank([], 4) == 0

    def test_everywhere_singular_gradient_raises(self):
        import pytest as _pytest

        e = parse("x1/(x2 - x2)", 3, {})  # d/dx1 is singular at every point
        with _pytest.raises(SamplingError):
            functional_independence_rank([e], 3)

    def test_constant_quotient_has_rank_zero(self):
        # the exact gradient of x7^3*(x7^3)^-1 is zero, not rounding noise
        e = parse("x7^3*(x7^3)^-1", 8, {})
        assert functional_independence_rank([e], 8) == 0

    def test_gaussian_power_products(self):
        texts = ["(x1-i*x2)^(2-3*i)*(x1+i*x2)^(2+3*i)", "x3^(1/2)*(x1^2+x2^2)^(-1/3)",
                 "(x1-i*x2)^(4-6*i)*(x1+i*x2)^(4+6*i)"]  # the third is the first squared
        exprs = [parse(t, 3, {}) for t in texts]
        assert functional_independence_rank(exprs, 3) == 2 == oracle.jacobian_rank(texts, 3)

    @pytest.mark.parametrize("texts, got, generic", [
        # ln(x1^2) = 2*ln(x1): with independent values for the two logs
        # the zero function below would count as rank 1
        (["x2", "ln(x1^2)^2 - 4*ln(x1)^2"], 1, 1),
        (["x2", "ln(x1)", "ln(x1^2)"], 1, 2),
        # independent, but three vectors dB/B in two variables are
        # dependent at every point, so independence is not certified
        (["x3", "ln(x1)", "ln(x2)*ln(x1+x2)"], 1, 3),
    ])
    def test_uncertified_ln_rows_are_left_out(self, texts, got, generic):
        exprs = [parse(t, 3, {}) for t in texts]
        assert functional_independence_rank(exprs, 3) == got
        assert oracle.jacobian_rank(texts, 3) == generic

    def test_independent_ln_arguments_are_certified(self):
        texts = ["ln(x1)*ln(x2)", "ln(x1)^2 + ln(x2)", "x1*ln(x3)"]
        exprs = [parse(t, 3, {}) for t in texts]
        assert functional_independence_rank(exprs, 3) == 3 == oracle.jacobian_rank(texts, 3)

    # templates over random polynomials f, g, h; planted dependences: f^2,
    # f*g, g+h and f/g against f, g, h, and the power products against
    # each other and f, g
    _CERTIFIED = ("f", "g", "h", "f^2", "f*g", "g+h", "f/g", "f^(1/2)*g^(-1)",
                  "f^(3/2)*g^(-2)", "f^(2*i)*g^(1/3)", "ln(f)", "g*ln(f)", "ln(f)^2 + h")
    _UNCERTIFIED = ("ln(g)", "x1^(1/2) + h")

    @staticmethod
    def _polys():
        term = st.tuples(st.sampled_from([-2, -1, 1, 2, 3]),
                         st.tuples(*[st.integers(0, 2)] * 3))
        return st.lists(term, min_size=1, max_size=2).map(
            lambda ts: Polynomial(3, dict((m, F(c)) for c, m in ts))).filter(
            lambda p: not p.is_constant)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rank_matches_sympy_jacobian(self, data):
        f, g, h = (data.draw(self._polys()) for _ in range(3))
        chosen = data.draw(st.lists(st.sampled_from(self._CERTIFIED + self._UNCERTIFIED),
                                    min_size=1, max_size=4, unique=True))
        texts = []
        for t in chosen:
            for name, p in (("f", f), ("g", g), ("h", h)):
                t = t.replace(name, f"({p.to_string()})")
            texts.append(t)
        got = functional_independence_rank([parse(t, 3, {}) for t in texts], 3)
        expected = oracle.jacobian_rank(texts, 3)
        assert got <= expected
        if all(t in self._CERTIFIED for t in chosen):
            assert got == expected


class TestMissingLabelCount:
    def test_adjacent_pair(self):
        assert missing_label_count(8, 2, 7, 3, 2) == 0

    def test_degenerate_identity(self):
        for d in (3, 6, 8):
            assert missing_label_count(d, 0, d, 0, 0) == 0

    def test_plain_arithmetic(self):
        assert missing_label_count(6, 2, 3, 1, 0) == 0
        assert missing_label_count(9, 1, 6, 2, 1) == 1

    def test_fractional_result_is_exact(self):
        assert missing_label_count(5, 0, 4, 0, 0) == F(1, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            missing_label_count(-1, 0, 0, 0, 0)


class TestVerifyAlgebra:
    def test_L61_full_record(self, catalog_by_name):
        sc, exprs = instantiate(catalog_by_name["L_6,1"])
        rep = verify_algebra(sc, exprs, name="L_6,1")
        assert rep.passed and rep.jacobi_ok
        assert rep.n_invariants == 2
        assert all(c.mode == "symbolic" and c.passed for c in rep.checks)
        assert rep.independence_rank == 2

    def test_abelian_with_claimed_coordinate(self):
        sc = abelian(3)
        rep = verify_algebra(sc, [parse("x1", 3, {})], name="abelian3")
        assert rep.passed and rep.n_invariants == 3

    def test_corrupted_constants_reported(self):
        bad = StructureConstants(3, {(1, 2, 1): F(1), (1, 3, 3): F(1)})
        rep = verify_algebra(bad, [], name="broken")
        assert not rep.jacobi_ok and not rep.passed

    def test_failing_invariant_recorded_not_raised(self, sl2):
        rep = verify_algebra(sl2, [parse("x1", 3, {})], name="sl2")
        assert not rep.passed
        assert rep.checks[0].mode == "symbolic" and not rep.checks[0].passed
