"""Seeded unimodular change of basis for catalog records.

The new basis is Y = P X, where P is a product of elementary integer row
operations Y_a = X_a + s X_b with s = +1 or -1, so P and its inverse Q are
integer matrices known exactly.  Structure constants transform as

    C'_ab^c = sum_{i,j,k} P_ai P_bj C_ij^k Q_kc

and the dual coordinates as y = P x, so an invariant F(x) of the old basis
becomes F(Q y): every `x_i` in its text is replaced by `(sum_a Q_ia x_a)`.
Parameter names in the text are left alone; they resolve when the text is
parsed.  Verdicts (Jacobi, N, annihilation, independence) do not depend on
the basis, so a rebased record must verify exactly like the original.

Density cap: a draw is redrawn when some integer power u^k (k >= 2) of an
invariant would get a base with more than twice its terms.  The cost of
L_8,9 is the expansion of a cubic to the 13th power; uncapped, a 10 to 14
term cubic makes that one op take 25 s to 100 s, so a 30-s run would see at
most one draw of it, its figures would hinge on that draw, and a run could
overrun its 180-s limit.  At the cap the cubic has up to 6 terms and the op
stays under about 2 s.
"""

from __future__ import annotations

import ast
import random
import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Matrix = List[List[int]]
Entries = Dict[Tuple[int, int, int], Fraction]

_VAR = re.compile(r"\bx(\d+)\b")


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def unimodular_pair(n: int, rng: random.Random, ops: int = 2) -> Tuple[Matrix, Matrix]:
    """(P, Q) with P Q = I, P a product of `ops` elementary row operations."""
    p, q = identity(n), identity(n)
    for _ in range(ops):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        e, e_inv = identity(n), identity(n)
        e[a][b], e_inv[a][b] = s, -s
        p = matmul(e, p)
        q = matmul(q, e_inv)
    return p, q


def transform_entries(entries: Entries, n: int, p: Matrix, q: Matrix) -> Entries:
    """Structure constants C'_ab^c (a < b, 1-based) in the basis Y = P X."""
    full: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for (i, j, k), c in entries.items():
        full.setdefault((i - 1, j - 1), {})[k - 1] = c
        full.setdefault((j - 1, i - 1), {})[k - 1] = -c
    out: Entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            acc = [Fraction(0)] * n
            for (i, j), rhs in full.items():
                w = p[a][i] * p[b][j]
                if not w:
                    continue
                for k, c in rhs.items():
                    for cc in range(n):
                        if q[k][cc]:
                            acc[cc] += w * c * q[k][cc]
            for cc, v in enumerate(acc):
                if v:
                    out[(a + 1, b + 1, cc + 1)] = v
    return out


def linear_form(coeffs: Sequence[int]) -> str:
    """Text of sum_a coeffs[a] * x_{a+1}, e.g. 'x1 - x3'."""
    parts = []
    for a, c in enumerate(coeffs):
        if not c:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        sign = "-" if c < 0 else "+"
        parts.append((sign, f"{mag}x{a + 1}"))
    text = " ".join(f"{s} {t}" for s, t in parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def substitute(text: str, q: Matrix) -> str:
    """Replace every x_i by (sum_a Q_ia x_a); a bare variable stays bare."""
    def repl(m: re.Match) -> str:
        i = int(m.group(1)) - 1
        form = linear_form(q[i])
        return form if _VAR.fullmatch(form) else f"({form})"
    return _VAR.sub(repl, text)


# ---------------------------------------------------------------------------
# Density cap, computed on the invariant texts without the program
# ---------------------------------------------------------------------------

Poly = Dict[Tuple[int, ...], Fraction]


def _padd(a: Poly, b: Poly, sign: int = 1) -> Poly:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


class _Expander:
    """Expands the polynomial parts of an invariant text after x -> Q x.

    Only what the density cap needs: sums, products, integer powers and
    division by constants of variables, rationals and parameters.  Any other
    node (the imaginary unit, ln, sqrt, non-integer powers) is opaque.
    """

    def __init__(self, n: int, q: Matrix, params: Dict[str, Fraction]):
        self.n, self.q, self.params = n, q, params

    def const(self, value) -> Poly:
        return {(0,) * self.n: Fraction(value)} if value else {}

    def poly(self, node) -> "Poly | None":
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return self.const(node.value)
        if isinstance(node, ast.Name):
            m = _VAR.fullmatch(node.id)
            if m:
                row = self.q[int(m.group(1)) - 1]
                return {tuple(int(t == a) for t in range(self.n)): Fraction(c)
                        for a, c in enumerate(row) if c}
            if node.id in self.params:
                return self.const(self.params[node.id])
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            p = self.poly(node.operand)
            if p is None:
                return None
            return {m: -c for m, c in p.items()} if isinstance(node.op, ast.USub) else p
        if not isinstance(node, ast.BinOp):
            return None
        left, right = self.poly(node.left), self.poly(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return _padd(left, right)
        if isinstance(node.op, ast.Sub):
            return _padd(left, right, -1)
        if isinstance(node.op, ast.Mult):
            return _pmul(left, right)
        k = _constant(right, self.n)
        if isinstance(node.op, ast.Div) and k:
            return {m: c / k for m, c in left.items()}
        if isinstance(node.op, ast.Pow) and k is not None and k.denominator == 1 and k >= 0:
            out = self.const(1)
            for _ in range(int(k)):
                out = _pmul(out, left)
            return out
        return None


def _constant(p: Poly, n: int) -> "Fraction | None":
    if not p:
        return Fraction(0)
    if list(p) == [(0,) * n]:
        return p[(0,) * n]
    return None


def _power_bases(text: str) -> List[Tuple[ast.AST, ast.AST]]:
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    return [(node.left, node.right) for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]


def within_density_cap(texts: Sequence[str], n: int, q: Matrix,
                       params: Dict[str, Fraction]) -> bool:
    """True when every integer power u^k (k >= 2) of the invariants keeps a
    base of at most max(2, 2 * terms before) terms after x -> Q x."""
    before = _Expander(n, identity(n), params)
    after = _Expander(n, q, params)
    for text in texts:
        for base, expo in _power_bases(text):
            k = before.poly(expo)
            k = None if k is None else _constant(k, n)
            if k is None or k.denominator != 1 or k < 2:
                continue
            old, new = before.poly(base), after.poly(base)
            if old is not None and new is not None and len(new) > max(2, 2 * len(old)):
                return False
    return True


def draw_basis(n: int, texts: Sequence[str], params: Dict[str, Fraction],
               rng: random.Random, ops: int = 2) -> Tuple[Matrix, Matrix]:
    """First (P, Q) from rng whose substitution stays within the density cap."""
    for _ in range(1000):
        p, q = unimodular_pair(n, rng, ops)
        if within_density_cap(texts, n, q, params):
            return p, q
    raise ValueError("no change of basis within the density cap")
