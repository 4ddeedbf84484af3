"""Exact symbolic expressions: sparse rational polynomials plus a small tree
language for quotients, powers, logarithms and complex constants.

A polynomial is a dict mapping exponent tuples to nonzero Fraction
coefficients; the zero polynomial has an empty dict.  Everything else
(negative / fractional / complex powers, ln) lives in a tiny immutable
expression tree whose leaves may be Polynomial values.  No general CAS
simplification is attempted: normalization folds constants, flattens nested
sums/products, merges polynomial subtrees and applies Pow(u,0) -> 1,
Pow(u,1) -> u.  That is enough to differentiate and evaluate every formula
this package cares about, and exactness is preserved wherever the expression
is a polynomial or a quotient of polynomials.

Variables are 1-based (x1..xn) to match the usual coordinates on the dual of
a Lie algebra.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

Monomial = tuple  # tuple[int, ...], one exponent per variable


class ExprError(ValueError):
    """Malformed expression (bad variable index, wrong arity, ...)."""


class EvaluationError(ArithmeticError):
    """Evaluation hit a singularity; carries the offending subtree."""

    def __init__(self, message: str, subtree=None):
        super().__init__(message)
        self.subtree = subtree


class ParseError(ValueError):
    """Syntax or binding error, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ExprError(f"expected an exact rational, got {x!r}")


class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("ComplexRational is immutable")

    @staticmethod
    def of(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        return ComplexRational(_as_fraction(value))

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    @property
    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __add__(self, other):
        other = ComplexRational.of(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexRational.of(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        other = ComplexRational.of(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return ComplexRational.of(other) / self

    def __truediv__(self, other):
        other = ComplexRational.of(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ExprError("ComplexRational.__pow__ needs a nonnegative int")
        out = ComplexRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexRational(other)
        if not isinstance(other, ComplexRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"ComplexRational({self.re})"
        return f"ComplexRational({self.re}, {self.im})"


_ZERO = Fraction(0)
_ONE = Fraction(1)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    terms maps exponent tuples of length nvars to nonzero Fractions; the
    representation is canonical, so == is exact polynomial equality.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[Monomial, Fraction]] = None):
        if nvars < 0:
            raise ExprError("nvars must be nonnegative")
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ExprError(f"bad exponent tuple {mono} for nvars={nvars}")
                clean[tuple(mono)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: _as_fraction(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        if not 1 <= index <= nvars:
            raise ExprError(f"variable index {index} out of range 1..{nvars}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return Polynomial(nvars, {mono: _ONE})

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ExprError("polynomials over different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, _ZERO) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial._raw(self.nvars, {m: c * f for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(mono, _ZERO) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Polynomial._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ExprError("polynomial powers must be nonnegative integers")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    @staticmethod
    def _raw(nvars: int, terms: dict) -> "Polynomial":
        p = object.__new__(Polynomial)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return _ZERO
        if not self.is_constant:
            raise ExprError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), _ZERO)

    def leading_monomial(self) -> Monomial:
        """Largest monomial in graded lexicographic order."""
        if self.is_zero:
            raise ExprError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda m: (sum(m), m))

    def diff(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to x_var (1-based)."""
        if not 1 <= var <= self.nvars:
            raise ExprError(f"variable index {var} out of range 1..{self.nvars}")
        i = var - 1
        out: dict = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            m2 = mono[:i] + (e - 1,) + mono[i + 1:]
            s = out.get(m2, _ZERO) + coeff * e
            if s:
                out[m2] = s
            else:
                del out[m2]
        return Polynomial._raw(self.nvars, out)

    def eval_exact(self, point: Sequence) -> Fraction:
        """Evaluate at a vector of rationals, exactly."""
        point = [_as_fraction(v) for v in point]
        if len(point) != self.nvars:
            raise ExprError(f"point has length {len(point)}, expected {self.nvars}")
        total = _ZERO
        for mono, coeff in self.terms.items():
            term = coeff
            for e, v in zip(mono, point):
                if e:
                    term *= v ** e
            total += term
        return total

    def eval_complex(self, point: Sequence[complex]) -> complex:
        if len(point) != self.nvars:
            raise ExprError(f"point has length {len(point)}, expected {self.nvars}")
        total = 0j
        for mono, coeff in self.terms.items():
            term = complex(coeff)
            for e, v in zip(mono, point):
                if e:
                    term *= v ** e
            total += term
        return total

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()!r})"

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: ComplexRational


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: ComplexRational


@dataclass(frozen=True)
class Ln:
    arg: "Expression"


Expression = Union[Const, Var, Sum, Prod, Pow, Ln, Polynomial]

CONST_ZERO = Const(ComplexRational(0))
CONST_ONE = Const(ComplexRational(1))


def const(value) -> Const:
    return Const(ComplexRational.of(value))


def is_zero_expr(e: Expression) -> bool:
    """True for the canonical zero forms (Const 0 or the zero polynomial)."""
    if isinstance(e, Const):
        return e.value == ComplexRational(0)
    if isinstance(e, Polynomial):
        return e.is_zero
    return False


def expr_nvars(e: Expression) -> Optional[int]:
    """Variable count inferred from Polynomial leaves, or None."""
    if isinstance(e, Polynomial):
        return e.nvars
    if isinstance(e, Sum):
        for t in e.terms:
            n = expr_nvars(t)
            if n is not None:
                return n
    if isinstance(e, Prod):
        for f in e.factors:
            n = expr_nvars(f)
            if n is not None:
                return n
    if isinstance(e, Pow):
        return expr_nvars(e.base)
    if isinstance(e, Ln):
        return expr_nvars(e.arg)
    return None


def max_var_index(e: Expression) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Polynomial):
        return e.nvars
    if isinstance(e, Sum):
        return max((max_var_index(t) for t in e.terms), default=0)
    if isinstance(e, Prod):
        return max((max_var_index(f) for f in e.factors), default=0)
    if isinstance(e, Pow):
        return max_var_index(e.base)
    if isinstance(e, Ln):
        return max_var_index(e.arg)
    return 0


def _poly_view(e: Expression, nvars: Optional[int]):
    """Polynomial form of an 'atom-like' node.  Monomial powers (x3^2, and
    generally single-term bases) count as atoms; multi-term bases under Pow
    are left unexpanded."""
    if isinstance(e, Polynomial):
        return e
    if isinstance(e, Const):
        if not e.value.is_rational or nvars is None:
            return None
        return Polynomial.constant(nvars, e.value.re)
    if isinstance(e, Var):
        if nvars is None:
            return None
        return Polynomial.variable(nvars, e.index)
    if isinstance(e, Pow) and e.exponent.is_integer and e.exponent.re >= 0:
        base = _poly_view(e.base, nvars)
        if base is not None and len(base.terms) <= 1:
            return base ** int(e.exponent.re)
    return None


def _poly_leaf(p: Polynomial) -> Expression:
    """Canonical leaf for a polynomial: Const for constants, Var for a bare
    variable, the polynomial itself otherwise."""
    if p.is_constant:
        return const(p.constant_value())
    if len(p.terms) == 1:
        mono, coeff = next(iter(p.terms.items()))
        if coeff == 1 and sum(mono) == 1:
            return Var(mono.index(1) + 1)
    return p


def normalize(e: Expression, nvars: Optional[int] = None) -> Expression:
    """Canonicalize: fold constants, flatten Sum/Prod, merge polynomial parts,
    apply Pow(u,0)->1 and Pow(u,1)->u.  Single atoms are left as atoms."""
    if nvars is None:
        nvars = expr_nvars(e)

    if isinstance(e, Polynomial):
        return _poly_leaf(e)
    if isinstance(e, (Const, Var)):
        return e

    if isinstance(e, Sum):
        flat = []
        for t in e.terms:
            t = normalize(t, nvars)
            if isinstance(t, Sum):
                flat.extend(t.terms)
            elif not is_zero_expr(t):
                flat.append(t)
        poly_acc = None
        const_acc = ComplexRational(0)
        rest = []
        for t in flat:
            p = _poly_view(t, nvars)
            if p is not None:
                poly_acc = p if poly_acc is None else poly_acc + p
            elif isinstance(t, Const):
                const_acc = const_acc + t.value
            else:
                rest.append(t)
        merged = []
        if poly_acc is not None and poly_acc.is_constant:
            const_acc = const_acc + poly_acc.constant_value()
            poly_acc = None
        if poly_acc is not None and not poly_acc.is_zero:
            if const_acc.is_rational:
                if const_acc.re:
                    poly_acc = poly_acc + const_acc.re
                const_acc = ComplexRational(0)
            merged.append(_poly_leaf(poly_acc))
        if const_acc != ComplexRational(0):
            merged.append(Const(const_acc))
        merged.extend(rest)
        if not merged:
            return CONST_ZERO
        if len(merged) == 1:
            return merged[0]
        return Sum(tuple(merged))

    if isinstance(e, Prod):
        flat = []
        for f in e.factors:
            f = normalize(f, nvars)
            if isinstance(f, Prod):
                flat.extend(f.factors)
            else:
                flat.append(f)
        poly_acc = None
        const_acc = ComplexRational(1)
        rest = []
        for f in flat:
            if is_zero_expr(f):
                return CONST_ZERO
            if isinstance(f, Const):
                const_acc = const_acc * f.value
                continue
            p = _poly_view(f, nvars)
            if p is not None:
                if p.is_constant:
                    const_acc = const_acc * ComplexRational(p.constant_value())
                else:
                    poly_acc = p if poly_acc is None else poly_acc * p
            else:
                rest.append(f)
        merged = []
        if poly_acc is not None:
            if const_acc.is_rational:
                if const_acc.re != 1:
                    poly_acc = poly_acc * const_acc.re
                const_acc = ComplexRational(1)
            merged.append(_poly_leaf(poly_acc))
        if const_acc != ComplexRational(1) or not merged and not rest:
            merged.insert(0, Const(const_acc))
        merged.extend(rest)
        if not merged:
            return CONST_ONE
        if len(merged) == 1:
            return merged[0]
        return Prod(tuple(merged))

    if isinstance(e, Pow):
        base = normalize(e.base, nvars)
        k = e.exponent
        if k == ComplexRational(0):
            return CONST_ONE
        if k == ComplexRational(1):
            return base
        if isinstance(base, Const) and k.is_integer:
            n = int(k.re)
            if n >= 0:
                return Const(base.value ** n)
            if base.value == ComplexRational(0):
                return Pow(base, k)  # singular; surfaces at evaluation
            return Const(ComplexRational(1) / (base.value ** (-n)))
        collapsed = _poly_view(Pow(base, k), nvars)
        if collapsed is not None:
            # monomial powers have a canonical polynomial form
            return _poly_leaf(collapsed)
        return Pow(base, k)

    if isinstance(e, Ln):
        arg = normalize(e.arg, nvars)
        if isinstance(arg, Const) and arg.value == ComplexRational(1):
            return CONST_ZERO
        return Ln(arg)

    raise ExprError(f"not an expression node: {e!r}")


def as_polynomial(e: Expression, nvars: Optional[int] = None) -> Optional[Polynomial]:
    """Canonical Polynomial denoted by e, or None if e is not a polynomial.

    Integer powers are expanded, sums and products combined.  nvars is
    inferred from Polynomial leaves when not given.
    """
    if nvars is None:
        nvars = expr_nvars(e)
        if nvars is None:
            nvars = max_var_index(e)
            if nvars == 0 and not isinstance(e, Const):
                raise ExprError("cannot infer nvars; pass it explicitly")

    if isinstance(e, Polynomial):
        return e
    if isinstance(e, Const):
        if not e.value.is_rational:
            return None
        return Polynomial.constant(nvars, e.value.re)
    if isinstance(e, Var):
        return Polynomial.variable(nvars, e.index)
    if isinstance(e, Sum):
        acc = Polynomial.zero(nvars)
        for t in e.terms:
            p = as_polynomial(t, nvars)
            if p is None:
                return None
            acc = acc + p
        return acc
    if isinstance(e, Prod):
        acc = Polynomial.constant(nvars, 1)
        for f in e.factors:
            p = as_polynomial(f, nvars)
            if p is None:
                return None
            acc = acc * p
        return acc
    if isinstance(e, Pow):
        if not (e.exponent.is_integer and e.exponent.re >= 0):
            return None
        p = as_polynomial(e.base, nvars)
        if p is None:
            return None
        return p ** int(e.exponent.re)
    if isinstance(e, Ln):
        return None
    raise ExprError(f"not an expression node: {e!r}")


def rational_form(e: Expression, nvars: Optional[int] = None):
    """(numerator, denominator) polynomials if e is a quotient of polynomials
    (integer powers only, no ln, rational constants); otherwise None."""
    if nvars is None:
        nvars = expr_nvars(e)
        if nvars is None:
            nvars = max_var_index(e)

    if isinstance(e, (Polynomial, Var, Const)):
        p = as_polynomial(e, nvars)
        if p is None:
            return None
        return p, Polynomial.constant(nvars, 1)
    if isinstance(e, Sum):
        num = Polynomial.zero(nvars)
        den = Polynomial.constant(nvars, 1)
        for t in e.terms:
            r = rational_form(t, nvars)
            if r is None:
                return None
            tn, td = r
            num = num * td + tn * den
            den = den * td
        return num, den
    if isinstance(e, Prod):
        num = Polynomial.constant(nvars, 1)
        den = Polynomial.constant(nvars, 1)
        for f in e.factors:
            r = rational_form(f, nvars)
            if r is None:
                return None
            fn, fd = r
            num = num * fn
            den = den * fd
        return num, den
    if isinstance(e, Pow):
        if not e.exponent.is_integer:
            return None
        k = int(e.exponent.re)
        r = rational_form(e.base, nvars)
        if r is None:
            return None
        bn, bd = r
        if k >= 0:
            return bn ** k, bd ** k
        if bn.is_zero:
            raise EvaluationError("division by zero polynomial", e)
        return bd ** (-k), bn ** (-k)
    if isinstance(e, Ln):
        return None
    raise ExprError(f"not an expression node: {e!r}")


def differentiate(e: Expression, var: int) -> Expression:
    """Exact partial derivative with respect to x_var, normalized."""
    nvars = expr_nvars(e)
    return normalize(_diff(e, var), nvars)


def _diff(e: Expression, v: int) -> Expression:
    if isinstance(e, Const):
        return CONST_ZERO
    if isinstance(e, Var):
        return CONST_ONE if e.index == v else CONST_ZERO
    if isinstance(e, Polynomial):
        return e.diff(v) if v <= e.nvars else CONST_ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff(t, v) for t in e.terms))
    if isinstance(e, Prod):
        parts = []
        for i, f in enumerate(e.factors):
            df = _diff(f, v)
            if is_zero_expr(df):
                continue
            others = e.factors[:i] + e.factors[i + 1:]
            parts.append(Prod(others + (df,)) if others else df)
        return Sum(tuple(parts)) if parts else CONST_ZERO
    if isinstance(e, Pow):
        du = _diff(e.base, v)
        if is_zero_expr(du):
            return CONST_ZERO
        k = e.exponent
        return Prod((Const(k), Pow(e.base, k - ComplexRational(1)), du))
    if isinstance(e, Ln):
        du = _diff(e.arg, v)
        if is_zero_expr(du):
            return CONST_ZERO
        return Prod((du, Pow(e.arg, ComplexRational(-1))))
    raise ExprError(f"not an expression node: {e!r}")


def evaluate(e: Expression, point: Sequence[complex]) -> complex:
    """IEEE double complex evaluation with principal branches for Pow/Ln.

    Raises EvaluationError at singular points (ln 0, division by zero).
    """
    if isinstance(e, Const):
        return e.value.to_complex()
    if isinstance(e, Var):
        if e.index > len(point):
            raise ExprError(f"point too short for x{e.index}")
        return complex(point[e.index - 1])
    if isinstance(e, Polynomial):
        return e.eval_complex(list(point)[: e.nvars])
    if isinstance(e, Sum):
        return sum(evaluate(t, point) for t in e.terms)
    if isinstance(e, Prod):
        out = 1 + 0j
        for f in e.factors:
            out *= evaluate(f, point)
        return out
    if isinstance(e, Pow):
        base = evaluate(e.base, point)
        k = e.exponent
        if k.is_integer:
            n = int(k.re)
            if base == 0 and n < 0:
                raise EvaluationError("zero raised to a negative power", e)
            return base ** n
        if base == 0:
            if k.im == 0 and k.re > 0:
                return 0j
            raise EvaluationError("zero base with non-positive exponent", e)
        return cmath.exp(k.to_complex() * cmath.log(base))
    if isinstance(e, Ln):
        arg = evaluate(e.arg, point)
        if arg == 0:
            raise EvaluationError("ln of zero", e)
        return cmath.log(arg)
    raise ExprError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = ("ln", "sqrt")
MAX_NESTING = 100  # parenthesized levels; the parser recurses once per level


class _Tokenizer:
    """Tokens: NUM (Fraction, maximal munch on digits/digits), IDENT,
    and the single characters + - * / ^ ( ).  Whitespace insignificant."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                num, den = int(text[i:j]), 1
                if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                    k = j + 1
                    while k < n and text[k].isdigit():
                        k += 1
                    den = int(text[j + 1:k])
                    if den == 0:
                        raise ParseError("zero denominator in rational literal", i)
                    j = k
                self.tokens.append(("NUM", Fraction(num, den), i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("IDENT", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("END", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] != "END":
            self.idx += 1
        return tok


class _Parser:
    """Recursive descent over:

        expr     := ['+'|'-'] term (('+'|'-') term)*
        term     := factor (('*'|'/') factor)*
        factor   := atom ['^' exponent]
        atom     := NUM | 'i' | var | param | 'ln' '(' expr ')'
                  | 'sqrt' '(' expr ')' | '(' expr ')'
        exponent := ['+'|'-'] (NUM | param) | '(' const-expr ')'

    Parameters are substituted by their rational values while parsing, so a
    parenthesized exponent may be any arithmetic over rationals, parameters
    and 'i' that folds to a constant.  Nesting deeper than MAX_NESTING is a
    ParseError, not a RecursionError.
    """

    def __init__(self, text: str, nvars: int, params: Mapping[str, Fraction]):
        self.toks = _Tokenizer(text)
        self.nvars = nvars
        self.params = {k: _as_fraction(v) for k, v in (params or {}).items()}
        self.depth = 0

    def parse(self) -> Expression:
        e = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "END":
            raise ParseError("unexpected trailing input", pos)
        return normalize(e, self.nvars)

    def _expr(self) -> Expression:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels",
                             self.toks.peek()[2])
        terms = []
        sign = 1
        kind, _, _ = self.toks.peek()
        if kind in "+-":
            self.toks.next()
            sign = -1 if kind == "-" else 1
        t = self._term()
        terms.append(t if sign > 0 else Prod((const(-1), t)))
        while True:
            kind, _, _ = self.toks.peek()
            if kind not in "+-":
                break
            self.toks.next()
            t = self._term()
            terms.append(t if kind == "+" else Prod((const(-1), t)))
        self.depth -= 1
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def _term(self) -> Expression:
        factors = [self._factor()]
        while True:
            kind, _, _ = self.toks.peek()
            if kind not in "*/":
                break
            self.toks.next()
            f = self._factor()
            if kind == "/":
                # keep divisions flat: u / v^k becomes v^-k, not (v^k)^-1
                if isinstance(f, Pow):
                    f = Pow(f.base, -f.exponent)
                else:
                    f = Pow(f, ComplexRational(-1))
            factors.append(f)
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def _factor(self) -> Expression:
        a = self._atom()
        kind, _, _ = self.toks.peek()
        if kind == "^":
            self.toks.next()
            expo = self._exponent()
            return Pow(a, expo)
        return a

    def _atom(self) -> Expression:
        kind, value, pos = self.toks.next()
        if kind == "NUM":
            return const(value)
        if kind == "(":
            e = self._expr()
            self._expect(")")
            return e
        if kind == "IDENT":
            if value == "i":
                return Const(ComplexRational(0, 1))
            if value in _KEYWORDS:
                self._expect("(")
                e = self._expr()
                self._expect(")")
                if value == "ln":
                    return Ln(e)
                return Pow(e, ComplexRational(Fraction(1, 2)))
            if value.startswith("x") and value[1:].isdigit():
                idx = int(value[1:])
                if not 1 <= idx <= self.nvars:
                    raise ParseError(f"variable x{idx} exceeds nvars={self.nvars}", pos)
                return Var(idx)
            if value in self.params:
                return const(self.params[value])
            raise ParseError(f"unbound parameter {value!r}", pos)
        raise ParseError(f"expected an atom, got {value!r}", pos)

    def _exponent(self) -> ComplexRational:
        kind, value, pos = self.toks.peek()
        sign = _ONE
        if kind in "+-":
            self.toks.next()
            if kind == "-":
                sign = -_ONE
            kind, value, pos = self.toks.peek()
        if kind == "NUM":
            self.toks.next()
            return ComplexRational(sign * value)
        if kind == "IDENT":
            self.toks.next()
            if value == "i":
                return ComplexRational(0, sign)
            if value in self.params:
                return ComplexRational(sign * self.params[value])
            raise ParseError(f"unbound parameter {value!r} in exponent", pos)
        if kind == "(":
            self.toks.next()
            e = self._expr()
            self._expect(")")
            folded = normalize(e, 0)
            if isinstance(folded, Polynomial) and folded.is_constant:
                folded = const(folded.constant_value())
            if not isinstance(folded, Const):
                raise ParseError("exponent does not fold to a constant", pos)
            v = folded.value
            return ComplexRational(sign * v.re, sign * v.im)
        raise ParseError("expected an exponent", pos)

    def _expect(self, kind: str):
        got, value, pos = self.toks.next()
        if got != kind:
            raise ParseError(f"expected {kind!r}, got {value!r}", pos)


def parse(text: str, nvars: int, params: Optional[Mapping[str, Fraction]] = None) -> Expression:
    """Parse an expression string with the given parameter bindings.

    The result is normalized; parameters are replaced by their exact rational
    values.  Raises ParseError with a character position on bad input.
    """
    return _Parser(text, nvars, params or {}).parse()


# ---------------------------------------------------------------------------
# Printing (inverse of parse on normalized expressions)
# ---------------------------------------------------------------------------

def _fmt_fraction(f: Fraction) -> str:
    return str(f)


def _fmt_const(c: ComplexRational, wrap_in_parens: bool = True) -> str:
    if c.im == 0:
        return _fmt_fraction(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_fmt_fraction(c.im)}*i"
    im = c.im
    op = " + " if im > 0 else " - "
    mag = abs(im)
    im_part = "i" if mag == 1 else f"{_fmt_fraction(mag)}*i"
    body = f"{_fmt_fraction(c.re)}{op}{im_part}"
    return f"({body})" if wrap_in_parens else body


def _needs_parens_as_factor(e: Expression) -> bool:
    if isinstance(e, Sum):
        return True
    if isinstance(e, Polynomial):
        if len(e.terms) > 1:
            return True
        # a lone monomial with a coefficient would leak its scalar into the
        # surrounding factor chain when reparsed, so it keeps its parens
        return not e.is_zero and next(iter(e.terms.values())) != 1
    if isinstance(e, Const):
        return not e.value.is_rational or e.value.re < 0
    return False


def _needs_parens_as_base(e: Expression) -> bool:
    if isinstance(e, (Sum, Prod, Pow)):
        return True
    if isinstance(e, Polynomial):
        if len(e.terms) != 1:
            return not e.is_zero
        mono, coeff = next(iter(e.terms.items()))
        # only a bare variable or a nonnegative rational stands alone under ^
        return coeff != 1 and sum(mono) > 0 or sum(mono) > 1 or coeff < 0
    if isinstance(e, Const):
        return not e.value.is_rational or e.value.re < 0
    return False


def _fmt_exponent(k: ComplexRational) -> str:
    if k.is_integer:
        return str(int(k.re))
    return f"({_fmt_const(k, wrap_in_parens=False)})"


def to_text(e: Expression) -> str:
    """Render an expression in the grammar accepted by parse()."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Polynomial):
        return e.to_string()
    if isinstance(e, Sum):
        parts = []
        for t in e.terms:
            s = to_text(t)
            if not parts:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)
    if isinstance(e, Prod):
        parts = []
        for i, f in enumerate(e.factors):
            s = to_text(f)
            if _needs_parens_as_factor(f):
                # a leading negative constant or single monomial may stay
                # bare: "-2*x1^2*ln(x1)" reparses to the same normalized tree
                bare = (i == 0 and s.startswith("-")
                        and (isinstance(f, Const)
                             or isinstance(f, Polynomial) and len(f.terms) == 1))
                if not bare:
                    s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _needs_parens_as_base(e.base):
            base = f"({base})"
        return f"{base}^{_fmt_exponent(e.exponent)}"
    if isinstance(e, Ln):
        return f"ln({to_text(e.arg)})"
    raise ExprError(f"not an expression node: {e!r}")
