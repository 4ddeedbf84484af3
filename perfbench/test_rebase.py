"""Tests of the rebased-workload generator.

    python3 -m pytest -q perfbench/test_rebase.py    (or: python3 perfbench/test_rebase.py)
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rebase  # noqa: E402
import workloads  # noqa: E402

coadinv = workloads.import_program()


def test_unimodular_pair_is_exact_inverse():
    for n in range(2, 9):
        for s in range(25):
            p, q = rebase.unimodular_pair(n, random.Random(s))
            assert rebase.matmul(p, q) == rebase.identity(n)
            assert rebase.matmul(q, p) == rebase.identity(n)


def test_rebased_records_keep_jacobi_and_parameters():
    records = workloads.load_records(coadinv)
    for seed in (1, 2):
        rebased = workloads.pass_records("rebased", seed, records, 0)
        changed = 0
        for rec, new in zip(records, rebased):
            sc, _ = coadinv.instantiate(new)
            assert coadinv.jacobi_defect(sc) == [], new.name
            changed += new.brackets != rec.brackets
            for old_text, new_text in zip(rec.invariants, new.invariants):
                for pname in rec.params:
                    assert (pname in old_text) == (pname in new_text)
        assert changed == len(records)


def test_rebased_invariant_stays_invariant():
    rec = next(r for r in workloads.load_records(coadinv) if r.name == "L_6,1")
    for seed in range(5):
        new = workloads.rebased_record(rec, random.Random(seed))
        sc, exprs = coadinv.instantiate(new)
        for e in exprs:
            assert coadinv.is_invariant_symbolic(sc, coadinv.as_polynomial(e, sc.dim))


def test_transform_matches_bracket_of_new_basis():
    # [Y_a, Y_b] computed in the old basis equals sum_c C'_ab^c Y_c
    rec = next(r for r in workloads.load_records(coadinv) if r.name == "L_8,9")
    sc, _ = coadinv.instantiate(rec)
    p, q = rebase.unimodular_pair(8, random.Random(7))
    new = rebase.transform_entries(sc.entries, 8, p, q)
    for a in range(8):
        for b in range(a + 1, 8):
            lhs = coadinv.bracket(sc, p[a], p[b])
            rhs = [sum((new.get((a + 1, b + 1, c + 1), Fraction(0)) * p[c][k]
                        for c in range(8)), Fraction(0)) for k in range(8)]
            assert lhs == rhs


def test_substitute_replaces_variables_only():
    q = rebase.identity(3)
    q[0][2] = -1
    assert rebase.substitute("x1^p*x2 - i*x3", q) == "(x1 - x3)^p*x2 - i*x3"


def test_density_cap():
    # x4 -> x4 + x7 and x5 -> x5 + x8 make the cubic 10 terms: over the cap
    cubic = "(x3*x4^2-x1*x4*x5-x5^2*x2)^13"
    q = rebase.identity(8)
    q[3][6] = q[4][7] = 1
    assert not rebase.within_density_cap([cubic], 8, q, {})
    q[4][7] = 0  # only x4 mixed: 6 terms, twice the original
    assert rebase.within_density_cap([cubic], 8, q, {})


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
