"""Machine-readable catalog of algebras: loader, printer, instantiation.

The catalog file is UTF-8 and line oriented.  `[algebra]` begins a record;
the body is `key = value` lines:

    [algebra]
    name = "L_8,1"
    dim = 8
    param p = 2 ; nonzero
    bracket [1,2] = X3
    bracket [7,8] = p*X7
    invariant "(x4^2+x5^2+x6^2)^p / x7^2"
    note "suspected-typo: ..."

Bracket lines use [X_i, X_j] = sum c*X_k with i < j (the loader rejects
i >= j so antisymmetric pairs cannot be entered twice); coefficients are
rationals (1/2 works) or declared parameter names with an optional sign.
Comments start with '#'.  Records keep parameters symbolic; instantiate()
substitutes exact rational values and parses the invariant strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import StructureConstants
from .expr import Expression, ParseError, parse
from .invariants import VerificationReport, InvariantCheck, verify_algebra


MAX_DIM = 64  # far above the catalog's 5..8; bounds the work a record can ask for


class CatalogError(ValueError):
    """Malformed catalog input; message carries the line number."""


class ConstraintError(ValueError):
    """A parameter value violates the record's constraint."""


@dataclass(frozen=True)
class ParamSpec:
    default: Fraction
    constraint: str = "any"  # "any" | "nonzero" | "in{a,b,...}"

    def allows(self, value: Fraction) -> bool:
        if self.constraint == "any":
            return True
        if self.constraint == "nonzero":
            return value != 0
        if self.constraint.startswith("in{") and self.constraint.endswith("}"):
            allowed = [Fraction(tok) for tok in self.constraint[3:-1].split(",") if tok]
            return value in allowed
        raise CatalogError(f"unknown constraint kind {self.constraint!r}")


# coefficient of one basis vector on a bracket's right-hand side:
# exact rational multiplier times an optional parameter
Coeff = Tuple[Fraction, Optional[str]]
BracketRhs = Tuple[Tuple[int, Coeff], ...]


@dataclass
class AlgebraRecord:
    name: str
    dim: int
    params: Dict[str, ParamSpec] = field(default_factory=dict)
    brackets: Dict[Tuple[int, int], BracketRhs] = field(default_factory=dict)
    invariants: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    @property
    def has_typo_flag(self) -> bool:
        return any("suspected-typo" in note for note in self.notes)

    def default_values(self) -> Dict[str, Fraction]:
        return {name: spec.default for name, spec in self.params.items()}


_QUOTED = re.compile(r'^"(.*)"$')
_BRACKET_KEY = re.compile(r"^\[\s*(\d+)\s*,\s*(\d+)\s*\]$")
_TERM = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*)\s*\*\s*)?X(?P<idx>\d+)$")
_VAR_TOKEN = re.compile(r"\bx(\d+)\b")


def _unquote(text: str, lineno: int) -> str:
    m = _QUOTED.match(text.strip())
    if not m:
        raise CatalogError(f"line {lineno}: expected a quoted string, got {text!r}")
    return m.group(1)


def _parse_rational(tok: str, lineno: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"line {lineno}: bad rational {tok!r}") from None


def _split_terms(rhs: str) -> List[str]:
    """Split '1*X4 - q*X7 + X2' into signed term strings."""
    out = []
    term = ""
    for ch in rhs:
        if ch in "+-" and term.strip():
            out.append(term.strip())
            term = ch
        else:
            term += ch
    if term.strip():
        out.append(term.strip())
    return out


def _parse_bracket_rhs(rhs: str, lineno: int) -> List[Tuple[int, Coeff]]:
    terms = []
    for raw in _split_terms(rhs):
        sign = Fraction(1)
        body = raw
        if body.startswith("+"):
            body = body[1:].strip()
        elif body.startswith("-"):
            sign = Fraction(-1)
            body = body[1:].strip()
        m = _TERM.match(body.replace(" ", ""))
        if not m:
            raise CatalogError(f"line {lineno}: bad bracket term {raw!r}")
        k = int(m.group("idx"))
        coeff_tok = m.group("coeff")
        if coeff_tok is None:
            coeff: Coeff = (sign, None)
        elif coeff_tok[0].isdigit():
            coeff = (sign * _parse_rational(coeff_tok, lineno), None)
        else:
            coeff = (sign, coeff_tok)
        terms.append((k, coeff))
    if not terms:
        raise CatalogError(f"line {lineno}: empty bracket right-hand side")
    return terms


def _finish_record(rec: AlgebraRecord, lineno: int) -> AlgebraRecord:
    if not rec.name:
        raise CatalogError(f"line {lineno}: record has no name")
    if rec.dim < 1:
        raise CatalogError(f"line {lineno}: record {rec.name!r} has no valid dim")
    for (i, j), rhs in rec.brackets.items():
        if not (1 <= i < j <= rec.dim):
            raise CatalogError(
                f"line {lineno}: record {rec.name!r} bracket [{i},{j}] needs "
                f"1 <= i < j <= dim={rec.dim}")
        seen = set()
        for k, (mult, pname) in rhs:
            if not 1 <= k <= rec.dim:
                raise CatalogError(
                    f"line {lineno}: record {rec.name!r} bracket [{i},{j}] "
                    f"targets X{k} beyond dim={rec.dim}")
            if k in seen:
                raise CatalogError(
                    f"line {lineno}: record {rec.name!r} bracket [{i},{j}] "
                    f"assigns X{k} twice")
            seen.add(k)
            if pname is not None and pname not in rec.params:
                raise CatalogError(
                    f"line {lineno}: record {rec.name!r} uses undeclared "
                    f"parameter {pname!r}")
    defaults = rec.default_values()
    for text in rec.invariants:
        for m in _VAR_TOKEN.finditer(text):
            if int(m.group(1)) > rec.dim:
                raise CatalogError(
                    f"line {lineno}: record {rec.name!r} invariant references "
                    f"x{m.group(1)} beyond dim={rec.dim}")
        try:
            parse(text, rec.dim, defaults)
        except ParseError as exc:
            raise CatalogError(
                f"line {lineno}: record {rec.name!r} invariant {text!r}: {exc}"
            ) from None
    return rec


def _strip_comment(line: str) -> str:
    """Drop a '#' comment, honoring double quotes."""
    in_quotes = False
    for pos, ch in enumerate(line):
        if ch == '"':
            in_quotes = not in_quotes
        elif ch == "#" and not in_quotes:
            return line[:pos]
    return line


def load_catalog_text(text: str) -> List[AlgebraRecord]:
    """Parse catalog text into records (file order, duplicate names rejected)."""
    records: List[AlgebraRecord] = []
    names = set()
    current: Optional[AlgebraRecord] = None
    started_at = 0

    def flush(lineno: int):
        nonlocal current
        if current is not None:
            rec = _finish_record(current, lineno)
            if rec.name in names:
                raise CatalogError(f"line {started_at}: duplicate record name {rec.name!r}")
            names.add(rec.name)
            records.append(rec)
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line == "[algebra]":
            flush(lineno)
            current = AlgebraRecord(name="", dim=0)
            started_at = lineno
            continue
        if current is None:
            raise CatalogError(f"line {lineno}: content before the first [algebra]")
        if line.startswith("invariant ") or line.startswith('invariant"'):
            current.invariants = current.invariants + (
                _unquote(line[len("invariant"):], lineno),)
            continue
        if line.startswith("note ") or line.startswith('note"'):
            current.notes = current.notes + (_unquote(line[len("note"):], lineno),)
            continue
        if "=" not in line:
            raise CatalogError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "name":
            current.name = _unquote(value, lineno)
        elif key == "dim":
            try:
                current.dim = int(value)
            except ValueError:
                raise CatalogError(f"line {lineno}: bad dim {value!r}") from None
            if current.dim > MAX_DIM:
                raise CatalogError(f"line {lineno}: dim {current.dim} is above {MAX_DIM}")
        elif key.startswith("param "):
            pname = key[len("param "):].strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", pname):
                raise CatalogError(f"line {lineno}: bad parameter name {pname!r}")
            default_tok, _, constraint = value.partition(";")
            constraint = constraint.strip() or "any"
            if constraint not in ("any", "nonzero") and not (
                    constraint.startswith("in{") and constraint.endswith("}")):
                raise CatalogError(f"line {lineno}: bad constraint {constraint!r}")
            spec = ParamSpec(_parse_rational(default_tok.strip(), lineno), constraint)
            current.params[pname] = spec
        elif key.startswith("bracket"):
            bkey = key[len("bracket"):].strip()
            m = _BRACKET_KEY.match(bkey)
            if not m:
                raise CatalogError(f"line {lineno}: bad bracket key {bkey!r}")
            i, j = int(m.group(1)), int(m.group(2))
            if i >= j:
                raise CatalogError(
                    f"line {lineno}: bracket [{i},{j}] must have i < j")
            if (i, j) in current.brackets:
                raise CatalogError(f"line {lineno}: bracket [{i},{j}] given twice")
            current.brackets[(i, j)] = tuple(_parse_bracket_rhs(value, lineno))
        else:
            raise CatalogError(f"line {lineno}: unknown key {key!r}")
    flush(len(text.splitlines()) + 1)
    return records


def load_catalog(source: Union[bytes, str, Path, "SupportsRead"]) -> List[AlgebraRecord]:
    """Load records from bytes, a path, or a readable (binary or text) stream."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    elif not isinstance(source, bytes):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = source.count(b"\n", 0, exc.start) + 1
            raise CatalogError(f"line {line}: not UTF-8 text") from None
    return load_catalog_text(source)


def _format_coeff(mult: Fraction, pname: Optional[str], k: int) -> str:
    if pname is None:
        if mult == 1:
            return f"X{k}"
        if mult == -1:
            return f"-X{k}"
        return f"{mult}*X{k}"
    if mult == 1:
        return f"{pname}*X{k}"
    if mult == -1:
        return f"-{pname}*X{k}"
    raise CatalogError(f"cannot print coefficient {mult}*{pname}")


def print_catalog(records: Sequence[AlgebraRecord]) -> str:
    """Canonical text form; load_catalog(print_catalog(r)) == r."""
    lines: List[str] = []
    for rec in records:
        lines.append("[algebra]")
        lines.append(f'name = "{rec.name}"')
        lines.append(f"dim = {rec.dim}")
        for pname, spec in rec.params.items():
            lines.append(f"param {pname} = {spec.default} ; {spec.constraint}")
        for (i, j) in sorted(rec.brackets):
            terms = []
            for k, (mult, pname) in rec.brackets[(i, j)]:
                txt = _format_coeff(mult, pname, k)
                if terms and not txt.startswith("-"):
                    terms.append("+ " + txt)
                elif terms:
                    terms.append("- " + txt[1:])
                else:
                    terms.append(txt)
            lines.append(f"bracket [{i},{j}] = " + " ".join(terms))
        for inv in rec.invariants:
            lines.append(f'invariant "{inv}"')
        for text in rec.notes:
            lines.append(f'note "{text}"')
        lines.append("")
    return "\n".join(lines)


def instantiate(rec: AlgebraRecord,
                values: Optional[Mapping[str, Union[int, Fraction]]] = None
                ) -> Tuple[StructureConstants, List[Expression]]:
    """Substitute parameter values (defaults where missing) and build the
    exact structure constants plus the parsed invariant expressions."""
    values = dict(values or {})
    for name in values:
        if name not in rec.params:
            raise ConstraintError(
                f"{rec.name}: unknown parameter {name!r} "
                f"(declared: {sorted(rec.params) or 'none'})")
    resolved: Dict[str, Fraction] = {}
    for name, spec in rec.params.items():
        v = Fraction(values.get(name, spec.default))
        if not spec.allows(v):
            raise ConstraintError(
                f"{rec.name}: parameter {name} = {v} violates constraint "
                f"{spec.constraint!r}")
        resolved[name] = v
    entries: Dict[Tuple[int, int, int], Fraction] = {}
    for (i, j), rhs in rec.brackets.items():
        for k, (mult, pname) in rhs:
            c = mult * (resolved[pname] if pname else 1)
            if c != 0:
                entries[(i, j, k)] = c
    sc = StructureConstants(rec.dim, entries)
    exprs = [parse(text, rec.dim, resolved) for text in rec.invariants]
    return sc, exprs


def verify_catalog(records: Sequence[AlgebraRecord],
                   names: Optional[Sequence[str]] = None,
                   values: Optional[Mapping[str, Union[int, Fraction]]] = None,
                   trials: int = 100, tol: float = 1e-9,
                   seed: int = 1) -> List[VerificationReport]:
    """One report per selected record at its (possibly overridden) parameter
    values.  Instantiation problems become failing reports, not exceptions."""
    selected = list(records)
    if names is not None:
        wanted = set(names)
        selected = [r for r in selected if r.name in wanted]
    reports = []
    for rec in selected:
        overrides = {k: v for k, v in (values or {}).items() if k in rec.params}
        try:
            sc, exprs = instantiate(rec, overrides)
        except (ConstraintError, CatalogError, ParseError, ValueError) as exc:
            reports.append(VerificationReport(
                name=rec.name, dim=rec.dim, jacobi_ok=False, n_invariants=0,
                checks=(InvariantCheck("<instantiation>", "symbolic", False,
                                       detail=str(exc)),),
                independence_rank=0, notes=rec.notes))
            continue
        reports.append(verify_algebra(
            sc, exprs, name=rec.name, notes=rec.notes,
            trials=trials, tol=tol, seed=seed))
    return reports


def default_catalog_path() -> Path:
    """./data/tables.lie when present, else the packaged catalog."""
    local = Path("data") / "tables.lie"
    if local.exists():
        return local
    from importlib import resources

    return Path(str(resources.files("coadinv") / "data" / "tables.lie"))
