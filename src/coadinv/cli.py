"""Command-line front end: batch verification, rank queries, invariant
search, semi-invariant weights and combinations, bordered-determinant
invariants.

Exit codes: 0 success, 1 usage or I/O error, 2 unexpected failure (a
non-typo-flagged record failing verification, a structure mismatch, or an
exceeded search cap).  With a fixed seed the machine-readable output
(--format jsonl) is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .algebra import coadjoint_matrix, generic_rank
from .catalog import (
    AlgebraRecord,
    CatalogError,
    ConstraintError,
    default_catalog_path,
    instantiate,
    load_catalog,
    verify_catalog,
)
from .expr import EvaluationError, ParseError, is_zero_expr, parse, to_text
from .invariants import (
    SearchCapError,
    StructureError,
    VerificationReport,
    combine_semi_invariants,
    is_invariant_symbolic,
    heisenberg_invariant,
    polynomial_invariant_search,
    semi_invariant_weights,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors to exit code 1
        raise UsageError(message)


_GLOBAL_DEFAULTS = {
    "catalog": None,
    "format": "text",
    "seed": 1,
    "trials": 100,
    "tol": 1e-9,
}


def _build_parser() -> _Parser:
    # the shared flags parse in either position (before or after the
    # command); SUPPRESS keeps a subcommand from clobbering a value that was
    # given before it, and main() fills in the defaults afterwards
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--catalog", default=argparse.SUPPRESS, metavar="PATH",
                        help="catalog file (default: data/tables.lie, falling "
                             "back to the packaged catalog)")
    shared.add_argument("--format", choices=("text", "jsonl"),
                        default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--tol", type=float, default=argparse.SUPPRESS)

    p = _Parser(prog="coadinv", description=__doc__, parents=[shared],
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    def command(name, help_text, algebra_required=True):
        sp = sub.add_parser(name, help=help_text, parents=[shared])
        sp.add_argument("--algebra", required=algebra_required, default=None,
                        help="record name, e.g. L_8,1")
        sp.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="NAME=VALUE", help="parameter override")
        return sp

    command("check", "verify catalog records", algebra_required=False)
    command("rank", "dim, generic rank and invariant count")
    sp = command("search", "polynomial invariant basis")
    sp.add_argument("--degree", type=int, required=True)
    sp = command("weights", "semi-invariant weights of expressions")
    sp.add_argument("--ops", default=None, help="comma-separated operator indices")
    sp.add_argument("expressions", nargs="+")
    sp = command("combine", "zero-weight products of semi-invariants")
    sp.add_argument("--ops", default=None, help="comma-separated operator indices")
    sp.add_argument("expressions", nargs="+")
    command("heisenberg", "bordered-determinant invariant")
    return p


def _parse_sets(entries: Sequence[str]) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for item in entries:
        name, eq, value = item.partition("=")
        if not eq or not name.strip():
            raise UsageError(f"--set expects NAME=VALUE, got {item!r}")
        try:
            out[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--set {item!r}: bad rational value") from None
    return out


def _load_records(args) -> List[AlgebraRecord]:
    path = args.catalog if args.catalog is not None else default_catalog_path()
    try:
        return load_catalog(path)
    except FileNotFoundError:
        raise UsageError(f"catalog not found: {path}") from None
    except CatalogError as exc:
        raise UsageError(f"bad catalog {path}: {exc}") from None


def _select_record(records: List[AlgebraRecord], name: str) -> AlgebraRecord:
    for rec in records:
        if rec.name == name:
            return rec
    raise UsageError(f"unknown algebra {name!r}")


def _emit(args, obj: dict, text_lines: Sequence[str]):
    if args.format == "jsonl":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _report_to_dict(rep: VerificationReport) -> dict:
    return {
        "algebra": rep.name,
        "dim": rep.dim,
        "jacobi_ok": rep.jacobi_ok,
        "n_invariants": rep.n_invariants,
        "checks": [
            {"expression": c.expression, "mode": c.mode, "passed": c.passed,
             "residual": c.residual, "detail": c.detail}
            for c in rep.checks
        ],
        "independence_rank": rep.independence_rank,
        "passed": rep.passed,
        "expected_typo": rep.expected_typo,
        "expected_failure": rep.expected_failure,
        "notes": list(rep.notes),
    }


def _report_text(rep: VerificationReport) -> List[str]:
    status = "PASS" if rep.passed else (
        "EXPECTED-FAIL" if rep.expected_failure else "FAIL")
    lines = [f"{rep.name}: dim={rep.dim} jacobi={'ok' if rep.jacobi_ok else 'VIOLATED'} "
             f"N={rep.n_invariants} independence={rep.independence_rank} [{status}]"]
    for c in rep.checks:
        mark = "pass" if c.passed else "FAIL"
        extra = f" residual={c.residual:.3e}" if c.mode == "numeric" else ""
        detail = f" ({c.detail})" if c.detail else ""
        lines.append(f"  {c.mode} {mark}{extra}: {c.expression}{detail}")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    return lines


def cmd_check(args) -> int:
    records = _load_records(args)
    if args.algebra is not None:
        _select_record(records, args.algebra)
        records = [r for r in records if r.name == args.algebra]
    values = _parse_sets(args.sets)
    reports = verify_catalog(records, values=values, trials=args.trials,
                             tol=args.tol, seed=args.seed)
    ok = True
    for rep in reports:
        _emit(args, _report_to_dict(rep), _report_text(rep))
        if not rep.passed and not rep.expected_failure:
            ok = False
    return 0 if ok else 2


def cmd_rank(args) -> int:
    records = _load_records(args)
    rec = _select_record(records, args.algebra)
    try:
        sc, _ = instantiate(rec, _parse_sets(args.sets))
    except ConstraintError as exc:
        raise UsageError(str(exc)) from None
    r = generic_rank(coadjoint_matrix(sc), trials=args.trials, seed=args.seed)
    n = sc.dim - r
    _emit(args,
          {"algebra": rec.name, "dim": sc.dim, "rank": r, "n_invariants": n},
          [f"algebra={rec.name} dim={sc.dim} rank={r} N={n}"])
    return 0


def cmd_search(args) -> int:
    if not 1 <= args.degree <= 8:
        raise UsageError("--degree must be between 1 and 8")
    records = _load_records(args)
    rec = _select_record(records, args.algebra)
    try:
        sc, _ = instantiate(rec, _parse_sets(args.sets))
    except ConstraintError as exc:
        raise UsageError(str(exc)) from None
    try:
        basis = polynomial_invariant_search(sc, args.degree)
    except SearchCapError as exc:
        print(f"search cap exceeded: {exc}", file=sys.stderr)
        return 2
    texts = [p.to_string() for p in basis]
    _emit(args,
          {"algebra": rec.name, "degree": args.degree, "basis": texts},
          [f"algebra={rec.name} degree<={args.degree} "
           f"basis_size={len(texts)}"] + [f"  {t}" for t in texts])
    return 0


def _ops_list(args, dim: int) -> List[int]:
    if args.ops is None:
        return list(range(1, dim + 1))
    try:
        ops = [int(tok) for tok in args.ops.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--ops expects comma-separated integers, got {args.ops!r}")
    if not ops or any(not 1 <= i <= dim for i in ops):
        raise UsageError(f"--ops indices must lie in 1..{dim}")
    return ops


def _parsed_expressions(args, rec: AlgebraRecord, values) -> list:
    resolved = {name: values.get(name, spec.default)
                for name, spec in rec.params.items()}
    exprs = []
    for text in args.expressions:
        try:
            e = parse(text, rec.dim, resolved)
        except ParseError as exc:
            raise UsageError(f"expression {text!r}: {exc}") from None
        if is_zero_expr(e):
            raise UsageError(f"expression {text!r}: must be nonzero")
        exprs.append(e)
    return exprs


def _semi_invariants(args):
    """The record, the ops and (text, SemiInvariant or None) per expression,
    all computed before any output."""
    records = _load_records(args)
    rec = _select_record(records, args.algebra)
    values = _parse_sets(args.sets)
    try:
        sc, _ = instantiate(rec, values)
    except ConstraintError as exc:
        raise UsageError(str(exc)) from None
    ops = _ops_list(args, sc.dim)
    exprs = _parsed_expressions(args, rec, values)
    out = []
    for text, e in zip(args.expressions, exprs):
        try:
            out.append((text, semi_invariant_weights(sc, e, ops, seed=args.seed)))
        except EvaluationError as exc:
            raise UsageError(f"expression {text!r}: {exc}") from None
    return rec, ops, out


def cmd_weights(args) -> int:
    _, ops, semis = _semi_invariants(args)
    for text, semi in semis:
        if semi is None:
            _emit(args, {"expression": text, "semi_invariant": False},
                  [f"{text}: not a semi-invariant under ops {ops}"])
        else:
            wmap = {str(i): str(semi.weights[i]) for i in ops}
            _emit(args, {"expression": text, "semi_invariant": True, "weights": wmap},
                  [f"{text}: weights " +
                   " ".join(f"op{i}={semi.weights[i]}" for i in ops)])
    return 0


def cmd_combine(args) -> int:
    rec, ops, semis = _semi_invariants(args)
    for text, semi in semis:
        if semi is None:
            _emit(args, {"expression": text, "semi_invariant": False},
                  [f"{text}: not a semi-invariant under ops {ops}"])
    if any(semi is None for _, semi in semis):
        return 2
    products = combine_semi_invariants([semi for _, semi in semis], ops)
    texts = [to_text(e) for e in products]
    _emit(args, {"algebra": rec.name, "ops": ops, "products": texts},
          [f"zero-weight products ({len(texts)}):"] + [f"  {t}" for t in texts])
    return 0


def cmd_heisenberg(args) -> int:
    records = _load_records(args)
    rec = _select_record(records, args.algebra)
    try:
        sc, _ = instantiate(rec, _parse_sets(args.sets))
    except ConstraintError as exc:
        raise UsageError(str(exc)) from None
    try:
        pf = heisenberg_invariant(sc)
    except StructureError as exc:
        print(f"structure error: {exc}", file=sys.stderr)
        return 2
    ok = is_invariant_symbolic(sc, pf)
    status = "symbolic-pass" if ok else "symbolic-fail"
    _emit(args,
          {"algebra": rec.name, "invariant": pf.to_string(), "status": status},
          [f"algebra={rec.name} {status}", f"  {pf.to_string()}"])
    return 0 if ok else 2


_COMMANDS = {
    "check": cmd_check,
    "rank": cmd_rank,
    "search": cmd_search,
    "weights": cmd_weights,
    "combine": cmd_combine,
    "heisenberg": cmd_heisenberg,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name, value in _GLOBAL_DEFAULTS.items():
            if not hasattr(args, name):
                setattr(args, name, value)
        if args.command is None:
            raise UsageError("a command is required (try --help)")
        if args.trials < 1:
            raise UsageError("--trials must be >= 1")
        if args.tol <= 0:
            raise UsageError("--tol must be positive")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
