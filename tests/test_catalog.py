"""Catalog format: loading, validation, instantiation, batch verification."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from coadinv.algebra import is_perfect, num_invariants
from coadinv.catalog import (
    MAX_DIM,
    CatalogError,
    ConstraintError,
    instantiate,
    load_catalog,
    load_catalog_text,
    print_catalog,
    verify_catalog,
)
from coadinv.expr import as_polynomial
from coadinv.invariants import functional_independence_rank, polynomial_invariant_search


ABELIAN3 = """
[algebra]
name = "abelian3"
dim = 3
invariant "x1"
"""


class TestLoad:
    def test_single_record(self):
        recs = load_catalog_text(ABELIAN3)
        assert len(recs) == 1
        assert recs[0].name == "abelian3" and recs[0].dim == 3
        assert recs[0].brackets == {} and recs[0].invariants == ("x1",)

    def test_bytes_input(self):
        recs = load_catalog(ABELIAN3.encode("utf-8"))
        assert recs[0].name == "abelian3"

    def test_bytes_not_utf8_rejected_with_line(self):
        data = ABELIAN3.encode("utf-8") + b'note "\xff"\n'
        with pytest.raises(CatalogError, match=r"^line 6: not UTF-8 text$"):
            load_catalog(data)

    def test_dim_above_cap_rejected_with_line(self):
        text = ABELIAN3.replace("dim = 3", f"dim = {MAX_DIM + 1}")
        with pytest.raises(CatalogError, match=rf"^line 4: dim {MAX_DIM + 1} is above {MAX_DIM}$"):
            load_catalog_text(text)
        assert load_catalog_text(ABELIAN3.replace("dim = 3", f"dim = {MAX_DIM}"))

    def test_deeply_nested_invariant_rejected_with_line(self):
        text = ABELIAN3.replace('"x1"', '"' + "(" * 2000 + "x1" + ")" * 2000 + '"')
        with pytest.raises(CatalogError, match=r"^line 6: .*nested deeper than 100 levels"):
            load_catalog_text(text)

    def test_shipped_catalog_is_complete(self, catalog_records):
        assert len(catalog_records) >= 30
        names = {r.name for r in catalog_records}
        assert {"L_5,1", "L_6,1", "L_7,1", "L_8,1", "L_8,22"} <= names

    def test_variable_beyond_dim_rejected(self):
        text = ABELIAN3.replace('"x1"', '"x9"').replace("dim = 3", "dim = 8")
        with pytest.raises(CatalogError, match="abelian3.*x9|x9.*abelian3"):
            load_catalog_text(text)

    def test_duplicate_name_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog_text(ABELIAN3 + ABELIAN3)

    def test_bracket_requires_i_less_than_j(self):
        text = """
[algebra]
name = "bad"
dim = 3
bracket [2,1] = X3
"""
        with pytest.raises(CatalogError, match=r"\[2,1\]"):
            load_catalog_text(text)

    def test_bracket_target_validated(self):
        text = """
[algebra]
name = "bad"
dim = 3
bracket [1,2] = X4
"""
        with pytest.raises(CatalogError, match="X4"):
            load_catalog_text(text)

    def test_undeclared_parameter_rejected(self):
        text = """
[algebra]
name = "bad"
dim = 3
bracket [1,2] = p*X3
"""
        with pytest.raises(CatalogError, match="p"):
            load_catalog_text(text)

    def test_error_carries_line_number(self):
        text = "\n[algebra]\nname = \"x\"\ndim = 2\nbracket [1,2] = X3\n"
        with pytest.raises(CatalogError, match="line"):
            load_catalog_text(text)

    def test_comments_and_quotes(self):
        text = """
# full-line comment
[algebra]
name = "c"  # trailing comment
dim = 2
note "a # inside quotes survives"
"""
        rec = load_catalog_text(text)[0]
        assert rec.notes == ("a # inside quotes survives",)


class TestRoundTrip:
    def test_shipped_catalog(self, catalog_records):
        text = print_catalog(catalog_records)
        again = load_catalog_text(text)
        assert again == catalog_records

    def test_bytes_round_trip(self, catalog_records):
        data = print_catalog(catalog_records).encode("utf-8")
        assert load_catalog(data) == catalog_records


class TestInstantiate:
    def test_L81_default(self, catalog_by_name):
        sc, exprs = instantiate(catalog_by_name["L_8,1"])
        assert sc.dim == 8 and len(exprs) == 2
        assert sc.c(7, 8, 7) == 2  # default p

    def test_L81_override(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,1"], {"p": F(3)})
        assert sc.c(7, 8, 7) == 3

    def test_constraint_violation(self, catalog_by_name):
        with pytest.raises(ConstraintError, match="nonzero"):
            instantiate(catalog_by_name["L_8,7"], {"p": 0})

    def test_unknown_parameter(self, catalog_by_name):
        with pytest.raises(ConstraintError, match="unknown parameter"):
            instantiate(catalog_by_name["L_6,1"], {"p": 1})

    def test_parameter_free_record_ignores_empty_map(self, catalog_by_name):
        a, ea = instantiate(catalog_by_name["L_6,1"])
        b, eb = instantiate(catalog_by_name["L_6,1"], {})
        assert a == b and ea == eb

    def test_eps_constraint(self, catalog_by_name):
        sc, _ = instantiate(catalog_by_name["L_8,13"], {"eps": F(-1)})
        assert sc.c(6, 7, 8) == -1
        with pytest.raises(ConstraintError):
            instantiate(catalog_by_name["L_8,13"], {"eps": F(2)})

    def test_eps_minus_one_instance_keeps_its_structure(self, catalog_by_name):
        from coadinv.algebra import jacobi_defect, num_invariants
        from coadinv.invariants import heisenberg_invariant, is_invariant_symbolic

        sc, exprs = instantiate(catalog_by_name["L_8,13"], {"eps": F(-1)})
        assert jacobi_defect(sc) == []
        assert num_invariants(sc) == 2
        pf = heisenberg_invariant(sc)  # the pairing stays nondegenerate
        assert is_invariant_symbolic(sc, pf)

    def test_parameter_zero_can_erase_brackets(self, catalog_by_name):
        # L_8,9's p may vanish; the p-dependent entries drop out exactly
        sc, _ = instantiate(catalog_by_name["L_8,9"], {"p": 0})
        assert sc.c(6, 8, 6) == 0 and sc.c(6, 8, 7) == -3


class TestVerifyCatalog:
    def test_empty(self):
        assert verify_catalog([]) == []

    def test_subset_selection(self, catalog_records):
        reports = verify_catalog(catalog_records, names=["L_6,1"])
        assert len(reports) == 1 and reports[0].name == "L_6,1"
        assert reports[0].passed

    def test_all_clean_records_pass(self, catalog_records):
        reports = verify_catalog(catalog_records)
        for rep in reports:
            if not rep.expected_typo:
                assert rep.passed, rep.name

    def test_typo_flagged_failures_documented(self, catalog_records):
        reports = verify_catalog(catalog_records)
        for rep in reports:
            if not rep.passed:
                assert rep.expected_typo, rep.name

    def test_clean_records_have_enough_invariants_and_independence(
            self, catalog_records):
        for rec in catalog_records:
            if rec.has_typo_flag:
                continue
            sc, exprs = instantiate(rec)
            assert num_invariants(sc) >= len(exprs), rec.name
            if exprs:
                assert functional_independence_rank(exprs, sc.dim) == len(exprs), rec.name

    def test_instantiation_failure_becomes_report(self, catalog_by_name):
        reports = verify_catalog([catalog_by_name["L_8,7"]], values={"p": 0})
        assert len(reports) == 1
        assert not reports[0].passed
        assert "nonzero" in reports[0].checks[0].detail

    def test_report_shape_invariants(self, catalog_records):
        for rep in verify_catalog(catalog_records):
            passing = sum(1 for c in rep.checks if c.passed)
            assert rep.independence_rank <= max(passing, 0)
            assert all(c.residual >= 0.0 for c in rep.checks)

    def test_perfect_records_span_their_listed_invariants(self, catalog_records):
        # for perfect algebras (clean rows) the degree-bounded search space
        # must contain every listed polynomial, and the listed family must be
        # independent up to the invariant count
        from coadinv import linalg

        seen = 0
        for rec in catalog_records:
            if rec.has_typo_flag or not rec.invariants:
                continue
            sc, exprs = instantiate(rec)
            if not is_perfect(sc):
                continue
            seen += 1
            polys = [as_polynomial(e, sc.dim) for e in exprs]
            assert all(p is not None for p in polys), rec.name
            basis = polynomial_invariant_search(
                sc, max(p.total_degree() for p in polys))
            monos = sorted({m for b in basis for m in b.terms}
                           | {m for p in polys for m in p.terms})
            span = [[b.coefficient(m) for m in monos] for b in basis]
            base_rank = linalg.rank(span)
            for p in polys:
                row = [p.coefficient(m) for m in monos]
                assert linalg.rank(span + [row]) == base_rank, rec.name
            assert functional_independence_rank(exprs, sc.dim) == min(
                len(exprs), num_invariants(sc)), rec.name
        assert seen >= 6


class TestEmptyCells:
    """Records whose published invariant cell is empty really have none."""

    EMPTY = ["L_6,3", "L_8,3", "L_8,16", "L_8,17", "L_8,20"]

    def test_no_low_degree_invariants_and_documented_count(self, catalog_by_name):
        for name in self.EMPTY:
            rec = catalog_by_name[name]
            assert rec.invariants == ()
            sc, _ = instantiate(rec)
            assert num_invariants(sc) == 0, name
            assert polynomial_invariant_search(sc, 4) == [], name
            assert any("N(g)=0" in note for note in rec.notes), name
