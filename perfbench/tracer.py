"""In-memory spans around calls into coadinv's public functions.

The program's source is not touched: `Tracer.installed()` replaces each
traced function with a wrapper on every coadinv module attribute that holds
it, which covers names rebound by `from .x import y`, and puts the originals
back on exit.  A wrapper records one span (name, start, end, parent span,
op id) per outermost call; a recursive call of a function already open on
the stack runs unrecorded, so a name's spans never overlap and their
durations add up.  Counts that belong to a call (rows handed to the sparse
eliminator, whether `as_polynomial` found a polynomial) are taken in the
same wrapper.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("coadinv", "coadinv.algebra", "coadinv.linalg", "coadinv.expr",
           "coadinv.invariants", "coadinv.catalog", "coadinv.cli")


def _nullspace_counts(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    counts["linalg.sparse_nullspace.rows_in"] += len(rows)
    counts["linalg.sparse_nullspace.nnz_in"] += sum(len(r) for r in rows)
    counts["linalg.sparse_nullspace.nullity_out"] += len(result)


def _as_polynomial_counts(counts, args, kwargs, result):
    counts["expr.as_polynomial.polynomial"] += result is not None


# "<module>.<function>" -> optional count hook(counts, args, kwargs, result)
TRACED: Dict[str, Optional[Callable]] = {
    "cli.main": None,
    "catalog.load_catalog": None,
    "catalog.instantiate": None,
    "catalog.verify_catalog": None,
    "expr.parse": None,
    "expr.as_polynomial": _as_polynomial_counts,
    "expr.rational_form": None,
    "expr.differentiate": None,
    "expr.evaluate": None,
    "algebra.jacobi_defect": None,
    "algebra.num_invariants": None,
    "algebra.coadjoint_matrix": None,
    "algebra.generic_rank": None,
    "linalg.rank": None,
    "linalg.rref": None,
    "linalg.sparse_nullspace": _nullspace_counts,
    "invariants.verify_algebra": None,
    "invariants.apply_operator": None,
    "invariants.is_invariant_symbolic": None,
    "invariants.is_invariant_numeric": None,
    "invariants.functional_independence_rank": None,
    "invariants.polynomial_invariant_search": None,
}

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, op


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, is_open, counts = self.spans, self._stack, self._open, self.counts

        def wrapper(*args, **kwargs):
            if is_open[name]:
                return fn(*args, **kwargs)
            is_open[name] = 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                is_open[name] = 0
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [importlib.import_module(m) for m in MODULES]
        patched = []
        try:
            for qualname, hook in TRACED.items():
                mod_name, fn_name = qualname.split(".")
                fn = getattr(importlib.import_module("coadinv." + mod_name), fn_name)
                wrapper = self._wrap(qualname, fn, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """name -> {"s": inclusive seconds, "self_s": ..., "calls": n}."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            dur = span[2] - span[1]
            agg = out[span[0]]
            agg["s"] += dur
            agg["self_s"] += dur - child[idx]
            agg["calls"] += 1
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, start and end relative to the first span."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": idx, "name": name, "start": round(start - t0, 7),
                                     "end": round(end - t0, 7), "parent": parent,
                                     "op": op}) + "\n")
