"""Inputs, ops and verdicts of the three workloads.

One op is one public call whose verdict a user waits for:

- catalog: `verify_algebra` on one catalog record at its default parameters;
  the op seed drives the rank and numeric sample points.
- search:  `polynomial_invariant_search(sc, 5)` on one catalog record.
- rebased: `verify_algebra` on one record after a seeded unimodular change of
  basis (see rebase.py); every pass draws fresh bases.

A pass runs every record once, in a seeded order.  Everything random comes
from the workload seed; the program only sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Tuple

import rebase

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("catalog", "search", "rebased")
SEARCH_DEGREE = 5


class ProgramMissing(RuntimeError):
    """The checkout holds no importable coadinv under src/."""


def import_program():
    """Import coadinv from the checkout's src/ and from nowhere else."""
    if not (SRC / "coadinv" / "__init__.py").is_file():
        raise ProgramMissing(f"no coadinv package under {SRC}")
    sys.path.insert(0, str(SRC))
    coadinv = importlib.import_module("coadinv")
    if Path(coadinv.__file__).resolve().parent != (SRC / "coadinv").resolve():
        raise ProgramMissing(f"coadinv imported from {coadinv.__file__}, not {SRC}")
    return coadinv


def load_records(coadinv):
    return coadinv.load_catalog(coadinv.default_catalog_path())


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _resolved_entries(rec) -> Dict[Tuple[int, int, int], Fraction]:
    values = rec.default_values()
    return {(i, j, k): mult * (values[pname] if pname else 1)
            for (i, j), rhs in rec.brackets.items() for k, (mult, pname) in rhs}


def rebased_record(rec, rng: random.Random):
    """The record in a seeded unimodular basis: exact constants, invariant
    texts with x_i substituted and parameter names kept."""
    values = rec.default_values()
    p, q = rebase.draw_basis(rec.dim, rec.invariants, values, rng)
    entries = rebase.transform_entries(_resolved_entries(rec), rec.dim, p, q)
    brackets: Dict[Tuple[int, int], tuple] = {}
    for (i, j, k), c in sorted(entries.items()):
        brackets.setdefault((i, j), ())
        brackets[(i, j)] += ((k, (c, None)),)
    texts = tuple(rebase.substitute(t, q) for t in rec.invariants)
    return dataclasses.replace(rec, brackets=brackets, invariants=texts)


def pass_records(workload: str, seed: int, records, k: int):
    """Records of pass k, before instantiation (harness-side generation)."""
    if workload == "rebased":
        return [rebased_record(rec, _rng("rebased", seed, k, rec.name)) for rec in records]
    return list(records)


def instantiate_all(coadinv, records) -> List[Tuple[Any, Any, list]]:
    """(record, structure constants, parsed invariants) for every record."""
    out = []
    for rec in records:
        sc, exprs = coadinv.catalog.instantiate(rec)
        out.append((rec, sc, exprs))
    return out


def schedule(workload: str, seed: int, k: int, n: int) -> List[Tuple[int, int]]:
    """(record index, op seed) in the seeded order of pass k."""
    rng = _rng("order", workload, seed, k)
    order = list(range(n))
    rng.shuffle(order)
    return [(i, rng.randrange(1, 2 ** 31)) for i in order]


def run_op(coadinv, workload: str, inst, op_seed: int):
    """The timed public call of one op."""
    rec, sc, exprs = inst
    if workload == "search":
        return coadinv.invariants.polynomial_invariant_search(sc, SEARCH_DEGREE)
    return coadinv.invariants.verify_algebra(sc, exprs, name=rec.name, notes=rec.notes,
                                             seed=op_seed)


def report_verdict(rep) -> Dict[str, Any]:
    """The seed-independent part of a VerificationReport."""
    return {"jacobi_ok": rep.jacobi_ok, "n_invariants": rep.n_invariants,
            "independence_rank": rep.independence_rank, "passed": rep.passed,
            "checks": [c.passed for c in rep.checks]}


def verdict(workload: str, result):
    if workload == "search":
        return [p.to_string() for p in result]
    return report_verdict(result)


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def expected(reference, workload: str, name: str):
    if workload == "search":
        return reference["search"][name]
    return reference["verify"][name]
