"""Expression engine: parsing, normalization, differentiation, evaluation."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from coadinv.expr import (
    ComplexRational,
    Const,
    EvaluationError,
    MAX_NESTING,
    Ln,
    ParseError,
    Polynomial,
    Pow,
    Prod,
    Var,
    as_polynomial,
    differentiate,
    evaluate,
    is_zero_expr,
    parse,
    rational_form,
    to_text,
)


class TestParse:
    def test_single_variable_stays_a_var(self):
        assert parse("x1", 1, {}) == Var(1)

    def test_polynomial_merges(self):
        e = parse("x3*x4^2 - x1*x4*x5 - x2*x5^2", 5, {})
        assert isinstance(e, Polynomial)
        assert e.terms == {
            (0, 0, 1, 2, 0): F(1),
            (1, 0, 0, 1, 1): F(-1),
            (0, 1, 0, 0, 2): F(-1),
        }

    def test_parameter_power_shape(self):
        e = parse("(x4^2+x5^2+x6^2)^p / x7^2", 8, {"p": 2})
        assert isinstance(e, Prod) and len(e.factors) == 2
        lead, tail = e.factors
        assert isinstance(lead, Pow) and isinstance(lead.base, Polynomial)
        assert lead.exponent == ComplexRational(2)
        assert tail == Pow(Var(7), ComplexRational(-2))

    def test_rational_literal(self):
        e = parse("1/2*x1^2", 2, {})
        assert isinstance(e, Polynomial)
        assert e.coefficient((2, 0)) == F(1, 2)

    def test_sqrt_is_half_power(self):
        e = parse("sqrt(x1)", 1, {})
        assert e == Pow(Var(1), ComplexRational(F(1, 2)))

    def test_imaginary_unit_and_complex_exponent(self):
        e = parse("(x2-i*x1)^(p-q*i)", 2, {"p": 2, "q": 3})
        assert isinstance(e, Pow)
        assert e.exponent == ComplexRational(2, -3)

    def test_exponent_arithmetic_folds(self):
        e = parse("x1^(p^2+q^2)", 1, {"p": 2, "q": 3})
        assert e == Polynomial(1, {(13,): F(1)})

    def test_unbound_parameter(self):
        with pytest.raises(ParseError, match="unbound parameter"):
            parse("p*x1", 1, {})

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="x9"):
            parse("x9", 8, {})

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * x2", 3, {})
        assert err.value.position == 5

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("(" * 2000 + "x1" + ")" * 2000, 1, {})
        assert err.value.position == MAX_NESTING
        depth = MAX_NESTING - 1  # one level is the whole expression
        assert parse("(" * depth + "x1" + ")" * depth, 1, {}) == Var(1)
        with pytest.raises(ParseError, match="nested deeper"):
            parse("ln(" * 200 + "x1" + ")" * 200, 1, {})

    def test_leading_minus(self):
        e = parse("-2*x6^3 + x5", 6, {})
        assert isinstance(e, Polynomial)
        assert e.coefficient((0, 0, 0, 0, 0, 3)) == F(-2)

    def test_division_by_constant_folds(self):
        e = parse("x1/2", 1, {})
        assert isinstance(e, Polynomial)
        assert e.coefficient((1,)) == F(1, 2)

    def test_division_binds_like_multiplication(self):
        # a/b*c parses as (a/b)*c
        e = parse("x1/x2*x3", 3, {})
        assert abs(evaluate(e, [6.0, 3.0, 2.0]) - 4.0) < 1e-12

    def test_signed_parameter_exponent(self):
        e = parse("x1^-p", 1, {"p": 2})
        assert e == Pow(Var(1), ComplexRational(-2))

    def test_rational_exponent_is_one_token(self):
        # maximal munch: digits/digits right after ^ is a single rational
        e = parse("x1^1/2", 1, {})
        assert e == Pow(Var(1), ComplexRational(F(1, 2)))


class TestDifferentiate:
    def test_power_rule(self):
        p = parse("x3*x4^2 - x1*x4*x5 - x2*x5^2", 5, {})
        d = differentiate(p, 4)
        assert d == parse("2*x3*x4 - x1*x5", 5, {})

    def test_negative_power(self):
        d = differentiate(parse("x7^-2", 7, {}), 7)
        # -2 * x7^-3
        val = evaluate(d, [0, 0, 0, 0, 0, 0, 2.0])
        assert abs(val - (-2 / 8)) < 1e-12

    def test_product_log_rule(self):
        e = parse("x6*ln(x6)", 6, {})
        d = differentiate(e, 6)
        for t in (0.5, 1.7, 3.0):
            point = [1.0] * 5 + [t]
            assert abs(evaluate(d, point) - (math.log(t) + 1)) < 1e-12

    def test_constant_derivative_is_zero(self):
        assert is_zero_expr(differentiate(Const(ComplexRational(5)), 1))


class TestEvaluate:
    def test_sum(self):
        assert evaluate(parse("x1+x2", 2, {}), [1, 2]) == 3

    def test_arithmetic(self):
        e = parse("x1^2 + 4*x2*x3", 3, {})
        assert evaluate(e, [1, 1, -1]) == -3

    def test_ln(self):
        assert abs(evaluate(Ln(Var(1)), [math.e]) - 1.0) < 1e-12

    def test_singularity_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(Ln(Var(1)), [0.0])
        with pytest.raises(EvaluationError):
            evaluate(parse("x1^-1", 1, {}), [0.0])

    def test_principal_branch_complex(self):
        e = parse("(x2-i*x1)^(1/2)", 2, {})
        v = evaluate(e, [1.0, 1.0])
        assert abs(v * v - (1 - 1j)) < 1e-12


class TestEvalExact:
    def test_zero(self):
        assert Polynomial.zero(3).eval_exact([1, 2, 3]) == 0

    def test_dot_product(self):
        p = as_polynomial(parse("x1*x4 + x2*x5 + x3*x6", 6, {}), 6)
        assert p.eval_exact([1, 2, 3, 4, 5, 6]) == 32

    def test_sum_of_squares(self):
        p = as_polynomial(parse("x4^2+x5^2+x6^2", 7, {}), 7)
        assert p.eval_exact([0, 0, 0, 3, 4, 12, 0]) == 169

    def test_rational_point(self):
        p = as_polynomial(parse("x1^2", 1, {}), 1)
        assert p.eval_exact([F(1, 3)]) == F(1, 9)


class TestAsPolynomial:
    def test_expands_integer_power(self):
        e = Pow(parse("x1+x2", 2, {}), ComplexRational(2))
        p = as_polynomial(e, 2)
        assert p == as_polynomial(parse("x1^2 + 2*x1*x2 + x2^2", 2, {}), 2)

    def test_negative_power_is_not_polynomial(self):
        assert as_polynomial(parse("3*x7^-2", 7, {}), 7) is None

    def test_constant(self):
        p = as_polynomial(Const(ComplexRational(5)), 3)
        assert p.is_constant and p.constant_value() == 5

    def test_ln_is_not_polynomial(self):
        assert as_polynomial(parse("ln(x1)", 1, {}), 1) is None


class TestRationalForm:
    def test_quotient(self):
        e = parse("(x4^2+x5^2+x6^2)^2 / x7^2", 7, {})
        num, den = rational_form(e, 7)
        assert den == as_polynomial(parse("x7^2", 7, {}), 7)
        assert num.total_degree() == 4

    def test_sum_with_quotient(self):
        e = parse("x1/x2 + x3", 3, {})
        num, den = rational_form(e, 3)
        assert num == as_polynomial(parse("x1 + x2*x3", 3, {}), 3)

    def test_ln_has_no_rational_form(self):
        assert rational_form(parse("ln(x1)", 2, {}), 2) is None


# -- ring axioms on random polynomials --------------------------------------

def _polys(nvars=3, max_terms=5):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    mono = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d))


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(_polys(), _polys())
def test_product_rule_exact(a, b):
    v = 2
    left = (a * b).diff(v)
    right = a.diff(v) * b + a * b.diff(v)
    assert left == right


@settings(max_examples=40, deadline=None)
@given(_polys())
def test_eval_exact_matches_complex(p):
    point = [F(1, 2), F(3), F(-2, 5)]
    exact = p.eval_exact(point)
    approx = p.eval_complex([complex(x) for x in point])
    assert abs(complex(exact) - approx) <= 1e-9 * (1 + abs(exact))


# -- corpus round trip -------------------------------------------------------

def test_round_trip_over_catalog(catalog_records):
    from coadinv.catalog import instantiate

    count = 0
    for rec in catalog_records:
        _, exprs = instantiate(rec)
        for e in exprs:
            text = to_text(e)
            again = parse(text, rec.dim, {})
            assert again == e, f"{rec.name}: {text}"
            count += 1
    assert count >= 30


def _expr_trees(nvars=3):
    from coadinv.expr import Const, Prod, Sum

    atoms = st.one_of(
        st.integers(1, nvars).map(Var),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
            lambda f: Const(ComplexRational(f))),
        st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                  st.fractions(min_value=-2, max_value=2, max_denominator=3)).map(
            lambda t: Const(ComplexRational(*t))),
        _polys(nvars=nvars, max_terms=3),
    )
    exponents = st.one_of(
        st.integers(-3, 3).map(ComplexRational),
        st.just(ComplexRational(F(1, 2))),
        st.just(ComplexRational(F(2), F(-1))),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda l: Sum(tuple(l))),
            st.lists(children, min_size=2, max_size=3).map(lambda l: Prod(tuple(l))),
            st.tuples(children, exponents).map(lambda t: Pow(*t)),
            children.map(Ln),
        )

    return st.recursive(atoms, extend, max_leaves=6)


@settings(max_examples=120, deadline=None)
@given(_expr_trees())
def test_round_trip_on_generated_expressions(raw):
    from coadinv.expr import normalize

    e = normalize(raw, 3)
    text = to_text(e)
    assert parse(text, 3, {}) == e, text


def test_exact_and_float_evaluation_agree_on_catalog_polynomials(catalog_records):
    from coadinv.catalog import instantiate

    point = [F(k + 1, 3) for k in range(8)]
    seen = 0
    for rec in catalog_records:
        _, exprs = instantiate(rec)
        for e in exprs:
            p = as_polynomial(e, rec.dim)
            if p is None:
                continue
            seen += 1
            exact = p.eval_exact(point[: rec.dim])
            approx = evaluate(e, [complex(v) for v in point[: rec.dim]])
            assert abs(complex(exact) - approx) <= 1e-9 * (1 + abs(exact))
    assert seen >= 20
