"""Regenerate perfbench/reference.json, the verdicts every op is checked against.

    python3 perfbench/make_reference.py

The reference holds only what must not depend on the seed or on how a
verdict was certified:

- verify: per record, jacobi_ok, n_invariants, independence_rank, passed
  and each check's passed (not its mode or residual).  The catalog and the
  rebased workloads share it, since a change of basis preserves all of it.
- search: per record, the canonical basis texts of
  polynomial_invariant_search(sc, 5).

Before writing, the generator confirms that the verdicts agree across
several verification seeds and several rebased draws, and cross-checks once
against the independent sympy oracle in tests/oracle.py: N(g) as dim minus
the exact rank of the coadjoint matrix at random integer points, the search
basis's dimension in every degree, and the annihilation of every basis
polynomial.  The oracle needs sympy and takes about ten minutes.  The
benchmark itself only reads the file.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

import workloads

VERIFY_SEEDS = (1, 2, 3, 4, 5)
REBASED_DRAWS = [(seed, k) for seed in (1, 2, 3) for k in (0, 1)]


def program_reference(coadinv) -> dict:
    records = workloads.load_records(coadinv)
    insts = workloads.instantiate_all(coadinv, records)
    verify, search = {}, {}
    for rec, sc, exprs in insts:
        seen = {json.dumps(workloads.report_verdict(coadinv.verify_algebra(
            sc, exprs, name=rec.name, notes=rec.notes, seed=s))) for s in VERIFY_SEEDS}
        if len(seen) != 1:
            raise SystemExit(f"{rec.name}: verdict depends on the seed: {seen}")
        verify[rec.name] = json.loads(seen.pop())
        search[rec.name] = [p.to_string() for p in
                            coadinv.polynomial_invariant_search(sc, workloads.SEARCH_DEGREE)]
    for seed, k in REBASED_DRAWS:
        recs = workloads.pass_records("rebased", seed, records, k)
        for rec, sc, exprs in workloads.instantiate_all(coadinv, recs):
            got = workloads.report_verdict(coadinv.verify_algebra(
                sc, exprs, name=rec.name, notes=rec.notes, seed=seed))
            if got != verify[rec.name]:
                raise SystemExit(f"{rec.name}: rebased (seed {seed}, pass {k}) verdict "
                                 f"{got} differs from {verify[rec.name]}")
    return {"verify": verify, "search": search}


def oracle_check(coadinv, ref: dict) -> None:
    sys.path.insert(0, str(workloads.ROOT))
    import sympy
    from tests import oracle

    rng = random.Random(20050829)
    for rec, sc, _ in workloads.instantiate_all(coadinv, workloads.load_records(coadinv)):
        n = sc.dim
        rank = 0
        for _ in range(3):
            point = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
            m = sympy.Matrix(n, n, lambda a, b: sum(
                sympy.Rational(oracle.c_full(sc.entries, a + 1, b + 1, k).numerator,
                               oracle.c_full(sc.entries, a + 1, b + 1, k).denominator)
                * point[k - 1] for k in range(1, n + 1)))
            rank = max(rank, m.rank())
        if n - rank != ref["verify"][rec.name]["n_invariants"]:
            raise SystemExit(f"{rec.name}: oracle N = {n - rank}, "
                             f"reference {ref['verify'][rec.name]['n_invariants']}")
        xs = oracle.sym_vars(n)
        texts = ref["search"][rec.name]
        basis = [coadinv.as_polynomial(coadinv.parse(t, n), n) for t in texts]
        by_degree = Counter(p.total_degree() for p in basis)
        for d in range(1, workloads.SEARCH_DEGREE + 1):
            dim = oracle.invariant_space_dim(sc.entries, n, d)
            if dim != by_degree[d]:
                raise SystemExit(f"{rec.name}: oracle finds {dim} invariants of degree "
                                 f"{d}, the search basis {by_degree[d]}")
        for text, p in zip(texts, basis):
            expr = oracle.poly_to_sympy(p, xs)
            if any(oracle.operator_image(sc.entries, n, i, expr, xs) != 0
                   for i in range(1, n + 1)):
                raise SystemExit(f"{rec.name}: oracle says {text} is not invariant")
        print(f"oracle agrees on {rec.name}: N={n - rank}, "
              f"search basis {len(texts)} up to degree {workloads.SEARCH_DEGREE}", flush=True)


def main() -> int:
    coadinv = workloads.import_program()
    ref = program_reference(coadinv)
    oracle_check(coadinv, ref)
    text = json.dumps(ref, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
