"""Model compilation: column layout, row families, and determinism.

Expected variable and row counts are closed-form functions of the roster
shape, asserted from independent arithmetic here rather than by calling
the compiler's own counting helper (which is itself under test).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from cohort_shuffle import (
    ModelVariant,
    Roster,
    Sense,
    Tolerances,
    VarKind,
    acquainted_pairs,
    balanced_spec,
    compile_model,
    count_variables,
    desk_spec,
    export_lp,
    generate,
    reference_spec,
)
from cohort_shuffle.compiler import cohort_cells, x_column
from cohort_shuffle.ipmodel import (SENSES, ColumnStore, IpModel, LinearRow, RowBuilder, RowStore,
                                    Variable)
from conftest import mk_student

MIN = ModelVariant.MIN_SAME_COMPANY
DEV = ModelVariant.MERIT_DEVIATION
PAIRS = ModelVariant.MIN_PAIRS

#: sha256 of the LP export of desk seed 7, pinned from the row-tuple
#: compiler; any change of row order, names, coefficients or number
#: formatting changes them
GOLDEN_EXPORT_SHA256 = {
    MIN: "a98b3d303a97663b5c0270d73eac0b80cb3eb9d5b6d49a881291d0f8ac36e273",
    DEV: "ac65ab10697251b069f9cd3e950ae8eed5d839a8c3bc5c63393d63b56732b680",
    PAIRS: "2920d9fd5beca4fd7adf44c72af95d7a96b6c94b52ca381e698dd09ffef13101",
}


@pytest.fixture(scope="module")
def full_class() -> Roster:
    return generate(reference_spec(2023), seed=1)


def rows_by_family(model):
    fams: dict[str, list] = {}
    for row in model.rows:
        fams.setdefault(row.family, []).append(row)
    return fams


class TestColumnLayout:
    def test_x_column_is_row_major(self):
        assert x_column(0, 0, 4) == 0
        assert x_column(0, 3, 4) == 3
        assert x_column(2, 1, 4) == 9

    def test_count_variables_matches_compiled_model(self, tiny_roster):
        for variant in ModelVariant:
            model = compile_model(tiny_roster, variant)
            assert count_variables(tiny_roster, variant) == model.num_vars

    def test_variable_totals(self, tiny_roster):
        n, c = 6, 3
        assert compile_model(tiny_roster, MIN).num_vars == n * c
        assert compile_model(tiny_roster, DEV).num_vars == n * c + 2 * c * (c - 1)
        # previous sizes (3, 2, 1) -> 3 + 1 + 0 acquainted pairs
        assert compile_model(tiny_roster, PAIRS).num_vars == n * c + 4

    def test_variable_names_and_kinds(self, tiny_roster):
        model = compile_model(tiny_roster, DEV)
        assert model.variables[0].name == "x[s00,C1]"
        assert model.variables[0].kind is VarKind.BINARY
        y0 = model.variables[18]
        assert y0.name == "y[C1,C2]" and y0.kind is VarKind.CONTINUOUS
        assert y0.upper == float("inf")
        assert model.var_index("z[C3,C2]") > model.var_index("y[C3,C2]")

    def test_var_index_leaves_the_model_unchanged(self, tiny_roster):
        model = compile_model(tiny_roster, DEV)
        fields = [(f.name, getattr(model, f.name)) for f in dataclasses.fields(model)]
        assert model.var_index("y[C1,C2]") == 18
        assert all(getattr(model, name) is value for name, value in fields)
        assert model.roster is tiny_roster and model.x_rows < model.num_rows


class TestObjectives:
    def test_min_costs_only_stay_columns(self, tiny_roster):
        model = compile_model(tiny_roster, MIN)
        for i, s in enumerate(tiny_roster.students):
            for c in range(3):
                cost = model.variables[x_column(i, c, 3)].objective
                assert cost == (1.0 if c == s.old_company else 0.0)

    def test_dev_costs_are_objective_weights(self, tiny_roster):
        r = Roster(students=tiny_roster.students, num_companies=3,
                   battalions=((0, 1, 2),), aom_weight=0.3, mom_weight=0.7)
        model = compile_model(r, DEV)
        costs = {v.name[0]: v.objective for v in model.variables[18:]}
        assert costs == {"y": 0.3, "z": 0.7}
        assert all(v.objective == 0.0 for v in model.variables[:18])

    def test_pairs_costs_unit_u_columns(self, tiny_roster):
        model = compile_model(tiny_roster, PAIRS)
        u_vars = model.variables[18:]
        assert len(u_vars) == 4
        assert all(v.objective == 1.0 and v.kind is VarKind.BINARY for v in u_vars)


class TestRowFamilies:
    def full_roster(self) -> Roster:
        students = (
            mk_student(0, 0, aom=10.0, gender="male", race="white",
                       is_task_force=True, is_sapr_guide=True,
                       sports=frozenset({"football"})),
            mk_student(1, 0, aom=20.0, gender="female", race="other",
                       is_international=True),
            mk_student(2, 1, aom=30.0, gender="male", race="white",
                       battalion_locked=True),
            mk_student(3, 1, aom=40.0, gender="female", race="other",
                       is_international=True, is_sapr_guide=True),
        )
        tol = Tolerances(count_min={"all": 1}, count_max={"all": 3, "task_force": 1},
                         merit_min={"aom": 5.0}, merit_max={"aom": 35.0},
                         gender_max={"male": 0.8}, race_min={"white": 0.1},
                         sport_max={"football": 1}, min_sapr=1, num_intl=1)
        return Roster(students=students, num_companies=2, battalions=((0, 1),),
                      conflict_pairs=(("s00", "s03"),), tolerances=tol)

    def test_family_row_counts(self):
        r = self.full_roster()
        n, c = 4, 2
        fams = {k: len(v) for k, v in rows_by_family(compile_model(r, MIN)).items()}
        assert fams == {
            "assign_once": n,
            "count_min_all": c, "count_max_all": c, "count_max_task_force": c,
            "merit_min_aom": c, "merit_max_aom": c,
            "gender_max_male": c, "race_min_white": c,
            "sport_cap_football": c,
            "conflict": 1 * c,
            "sapr_min": c, "intl_count": c,
            "battalion_lock": 1,
        }

    def test_no_stay_rows_only_for_move_variants(self):
        r = self.full_roster()
        assert "no_stay" not in rows_by_family(compile_model(r, MIN))
        for variant in (DEV, PAIRS):
            no_stay = rows_by_family(compile_model(r, variant))["no_stay"]
            assert len(no_stay) == 4
            for row, s in zip(no_stay, r.students):
                assert row.sense is Sense.EQ and row.rhs == 0.0
                assert row.cols == (x_column(r.students.index(s), s.old_company, 2),)

    def test_merit_rows_are_homogenized(self):
        r = self.full_roster()
        model = compile_model(r, MIN)
        row = rows_by_family(model)["merit_max_aom"][0]
        assert row.rhs == 0.0
        # coefficient of each x is score - bound
        assert row.coefs == (10.0 - 35.0, 20.0 - 35.0, 30.0 - 35.0, 40.0 - 35.0)
        row = rows_by_family(model)["merit_min_aom"][1]
        assert row.coefs == (5.0, 15.0, 25.0, 35.0) and row.sense is Sense.GE

    def test_fraction_rows_are_homogenized(self):
        r = self.full_roster()
        model = compile_model(r, MIN)
        row = rows_by_family(model)["gender_max_male"][0]
        # males (s00, s02) get 1 - 0.8, the rest -0.8
        assert row.coefs == pytest.approx((0.2, -0.8, 0.2, -0.8))
        assert row.sense is Sense.LE and row.rhs == 0.0

    def test_zero_coefficients_keep_their_sign(self):
        # a score on its bound writes +0.0, and so does a member under a share
        # bound of 1; a nonmember under a share bound of 0 writes -0.0
        tol = Tolerances(merit_min={"aom": 20.0}, gender_max={"male": 1.0},
                         race_min={"white": 0.0})
        r = dataclasses.replace(self.full_roster(), tolerances=tol)
        fams = rows_by_family(compile_model(r, MIN))
        def zero_signs(row):
            return [math.copysign(1.0, a) for a in row.coefs if a == 0.0]
        assert zero_signs(fams["merit_min_aom"][0]) == [1.0]  # s01
        assert zero_signs(fams["gender_max_male"][0]) == [1.0, 1.0]  # s00, s02
        assert zero_signs(fams["race_min_white"][0]) == [-1.0, -1.0]  # s01, s03

    def test_battalion_lock_drops_old_company_under_no_stay(self):
        r = self.full_roster()
        lock_min = rows_by_family(compile_model(r, MIN))["battalion_lock"][0]
        assert lock_min.cols == (x_column(2, 0, 2), x_column(2, 1, 2))
        lock_dev = rows_by_family(compile_model(r, DEV))["battalion_lock"][0]
        assert lock_dev.cols == (x_column(2, 0, 2),)

    def test_spread_rows_mirror_each_other(self, tiny_roster):
        model = compile_model(tiny_roster, DEV)
        fams = rows_by_family(model)
        for fam in ("aom_spread_pos", "aom_spread_neg",
                    "mom_spread_pos", "mom_spread_neg"):
            assert len(fams[fam]) == 3 * 2
        pos, neg = fams["aom_spread_pos"][0], fams["aom_spread_neg"][0]
        assert pos.cols == neg.cols
        # the x part flips sign, the spread column keeps -1
        assert neg.coefs[:-1] == tuple(-v for v in pos.coefs[:-1])
        assert pos.coefs[-1] == neg.coefs[-1] == -1.0

    def test_together_rows_link_u_to_both_students(self, tiny_roster):
        model = compile_model(tiny_roster, PAIRS)
        together = rows_by_family(model)["together"]
        # 4 acquainted pairs x 3 companies
        assert len(together) == 12
        first = together[0]
        assert first.coefs == (1.0, 1.0, -1.0)
        assert first.sense is Sense.LE and first.rhs == 1.0
        u_col = first.cols[2]
        assert model.variables[u_col].name == "u[s00,s01]"

    def test_acquainted_pairs_grouped_by_previous_company(self, tiny_roster):
        assert acquainted_pairs(tiny_roster) == [(0, 1), (0, 2), (1, 2), (3, 4)]


class TestCompactForm:
    def test_cells_skip_the_own_company_and_single_cohorts(self, tiny_roster):
        # previous sizes (3, 2, 1): company 2's one student has no pair to make
        assert cohort_cells(tiny_roster) == [(1, 0), (2, 0), (0, 1), (2, 1)]

    def test_cohort_and_epigraph_rows_per_cell(self, tiny_roster):
        model = compile_model(tiny_roster, PAIRS, form="compact")
        n_x = 6 * 3
        names = list(model.variables.names())
        assert names[n_x:] == ["n[C2,C1]", "n[C3,C1]", "n[C1,C2]", "n[C3,C2]",
                               "w[C2,C1]", "w[C3,C1]", "w[C1,C2]", "w[C3,C2]"]
        extra = model.variables[n_x:]
        assert {(v.kind, v.lower, v.upper) for v in extra} == {(VarKind.CONTINUOUS, 0.0, math.inf)}
        assert [v.objective for v in extra] == [0.0] * 4 + [1.0] * 4
        assert model.binary_columns() == list(range(n_x))
        rows = list(model.rows[model.x_rows:])
        # blocks by cohort size: the size-2 cohort's cells, then the size-3 one's
        assert [row.name() for row in rows] == [
            "cohort_C1_C2", "pairs_epi_1_C1_C2", "cohort_C3_C2", "pairs_epi_1_C3_C2",
            "cohort_C2_C1", "pairs_epi_1_C2_C1", "pairs_epi_2_C2_C1",
            "cohort_C3_C1", "pairs_epi_1_C3_C1", "pairs_epi_2_C3_C1"]
        cohort, epi_1, epi_2 = rows[4:7]
        n_col, w_col = n_x, n_x + 4
        assert cohort.cols == (n_col, *(x_column(i, 1, 3) for i in range(3)))
        assert cohort.coefs == (1.0, -1.0, -1.0, -1.0)
        assert cohort.sense is Sense.EQ and cohort.rhs == 0.0
        for k, row in ((1, epi_1), (2, epi_2)):
            assert row.cols == (w_col, n_col) and row.coefs == (1.0, -k)
            assert row.sense is Sense.GE and row.rhs == -k * (k + 1) / 2

    @pytest.mark.parametrize("spec", [desk_spec(), balanced_spec(6, 14), reference_spec(2023)],
                             ids=["desk", "balanced", "reference"])
    def test_x_block_and_x_columns_are_the_paper_forms(self, spec):
        roster = generate(spec, seed=1)
        for variant in (MIN, DEV):
            paper, compact = (compile_model(roster, variant, form) for form in ("paper", "compact"))
            assert compact.x_rows == paper.x_rows
            for a, b in zip(row_arrays(paper.rows), row_arrays(compact.rows), strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for a, b in zip(column_arrays(paper.variables), column_arrays(compact.variables),
                            strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert compact.rows.blocks == paper.rows.blocks
        paper, compact = (compile_model(roster, PAIRS, form) for form in ("paper", "compact"))
        assert compact.x_rows == paper.x_rows
        for a, b in zip(row_arrays(paper.rows[:paper.x_rows]),
                        row_arrays(compact.rows[:compact.x_rows]), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        n_x = len(roster.students) * roster.num_companies
        for a, b in zip(column_arrays(paper.variables), column_arrays(compact.variables),
                        strict=True):
            assert a.dtype == b.dtype and a[:n_x].tobytes() == b[:n_x].tobytes()
        assert len(compact.variables) == n_x + 2 * len(cohort_cells(roster))

    def test_full_class_compact_model_size(self, full_class):
        model = compile_model(full_class, PAIRS, form="compact")
        assert (model.num_rows, len(model.rows.coefs), model.num_vars) == (35_297, 545_876, 34_650)

    def test_unknown_form_rejected(self, tiny_roster):
        with pytest.raises(ValueError, match="form"):
            compile_model(tiny_roster, PAIRS, form="epigraph")


class TestErrorsAndDeterminism:
    def test_empty_roster_rejected(self):
        empty = Roster(students=(), num_companies=2, battalions=((0, 1),))
        with pytest.raises(ValueError):
            compile_model(empty, MIN)

    def test_single_company_cannot_forbid_staying(self):
        r = Roster(students=(mk_student(0, 0),), num_companies=1, battalions=((0,),))
        with pytest.raises(ValueError):
            compile_model(r, DEV)
        assert compile_model(r, MIN).num_vars == 1

    def test_variant_must_be_enum(self, tiny_roster):
        with pytest.raises(ValueError):
            compile_model(tiny_roster, "dev")

    def test_recompilation_is_byte_identical(self, tiny_roster):
        for variant in ModelVariant:
            a = export_lp(compile_model(tiny_roster, variant))
            b = export_lp(compile_model(tiny_roster, variant))
            assert a == b

    def test_export_contains_all_sections(self, tiny_roster):
        text = export_lp(compile_model(tiny_roster, DEV))
        for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            assert section in text
        assert "x[s00,C1]" in text
        assert "no_stay_s00:" in text

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_desk_export_matches_the_golden_hash(self, variant):
        text = export_lp(compile_model(generate(desk_spec(), seed=7), variant))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_EXPORT_SHA256[variant]


class TestRowStore:
    def test_rows_are_read_only_arrays(self, tiny_roster):
        rows = compile_model(tiny_roster, PAIRS).rows
        for array in (rows.indptr, rows.cols, rows.coefs, rows.sense, rows.rhs):
            assert isinstance(array, np.ndarray) and not array.flags.writeable
        assert len(rows.indptr) == len(rows) + 1 == len(rows.rhs) + 1 == len(rows.sense) + 1
        assert rows.indptr[-1] == len(rows.cols) == len(rows.coefs)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_indexing_slicing_and_iteration_agree(self, tiny_roster, variant):
        model = compile_model(tiny_roster, variant)
        listed = list(model.rows)
        assert [model.rows[r] for r in range(model.num_rows)] == listed
        assert model.rows[-1] == listed[-1]
        x_rows = model.x_rows
        assert list(model.rows[:x_rows]) == listed[:x_rows]
        assert list(model.rows[3:x_rows + 4][1:]) == listed[4:x_rows + 4]
        assert model.rows[::3] == tuple(listed[::3])
        with pytest.raises(IndexError):
            model.rows[model.num_rows]

    def test_row_tuples_are_packed_once(self):
        variables = tuple(Variable(f"v{j}", VarKind.CONTINUOUS, 0.0, 1.0, 0.0) for j in range(3))
        rows = (LinearRow("cap", (), (0, 2), (1.0, -2.5), Sense.LE, 4.0),
                LinearRow("pin", ("a", 1), (1,), (3.0,), Sense.EQ, 0.0),
                LinearRow("empty", (), (), (), Sense.GE, -1.0))
        model = IpModel(MIN, variables, rows)
        assert isinstance(model.rows, RowStore)
        assert list(model.rows) == list(rows)
        assert [row.name() for row in model.rows] == ["cap", "pin_a_1", "empty"]
        assert model.rows.cols.tolist() == [0, 2, 1]

    def test_row_intervals_follow_the_sense(self):
        variables = (Variable("v", VarKind.CONTINUOUS, 0.0, 1.0, 0.0),)
        rows = (LinearRow("le", (), (0,), (1.0,), Sense.LE, 4.0),
                LinearRow("eq", (), (0,), (1.0,), Sense.EQ, -0.0),
                LinearRow("ge", (), (0,), (1.0,), Sense.GE, -1.0))
        store = IpModel(MIN, variables, rows).rows
        assert store.lo.tolist() == [-math.inf, -0.0, -1.0]
        assert store.hi.tolist() == [4.0, -0.0, math.inf]
        assert store[1:].lo.tolist() == [-0.0, -1.0] and store[:1].hi.tolist() == [4.0]


def row_arrays(rows: RowStore) -> tuple[np.ndarray, ...]:
    return rows.indptr, rows.cols, rows.coefs, rows.sense, rows.rhs


def column_arrays(columns: ColumnStore) -> tuple[np.ndarray, ...]:
    return columns.kind, columns.lower, columns.upper, columns.objective


def concatenation_build(blocks: list[tuple]) -> tuple[np.ndarray, ...]:
    """The five row-store arrays of ``RowBuilder.add`` argument tuples, each
    block materialized whole and then concatenated."""
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32), np.zeros(0),
              np.zeros(0, dtype=np.int8), np.zeros(0))]
    for specs, outer, inner, cols, coefs, lengths in blocks:
        n_rows = len(specs) * len(outer) * len(inner)
        if n_rows == 0:
            continue
        cols = np.asarray(sum(np.broadcast_arrays(*cols)) if isinstance(cols, tuple) else cols,
                          dtype=np.int32)
        families, senses, rhs = zip(*specs)
        reps = n_rows // len(specs)
        parts.append((np.full(n_rows, cols.shape[-1]) if lengths is None else lengths,
                      cols.ravel(), np.broadcast_to(coefs, cols.shape).ravel(),
                      np.tile(np.array([SENSES.index(s) for s in senses], dtype=np.int8), reps),
                      np.tile(np.array(rhs, dtype=float), reps)))
    lengths, cols, coefs, sense, rhs = (np.concatenate(part) for part in zip(*parts))
    indptr = np.zeros(len(rhs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, cols, coefs, sense, rhs


class TestRowBuilder:
    @pytest.mark.parametrize("spec", [desk_spec(), balanced_spec(6, 14), reference_spec(2023)],
                             ids=["desk", "balanced", "reference"])
    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_build_matches_a_concatenation_build(self, spec, variant, monkeypatch):
        blocks = []
        add = RowBuilder.add

        def recorded(self, specs, outer, inner, cols, coefs, lengths=None):
            blocks.append((specs, outer, inner, cols, coefs, lengths))
            add(self, specs, outer, inner, cols, coefs, lengths)

        monkeypatch.setattr(RowBuilder, "add", recorded)
        rows = compile_model(generate(spec, seed=1), variant).rows
        for built, packed in zip((rows.indptr, rows.cols, rows.coefs, rows.sense, rows.rhs),
                                 concatenation_build(blocks), strict=True):
            assert built.dtype == packed.dtype and built.tobytes() == packed.tobytes()

    @pytest.mark.parametrize("variant, form", [(PAIRS, "paper"), (PAIRS, "compact"),
                                               (DEV, "paper")])
    def test_full_class_compile_peaks_near_the_model_size(self, full_class, variant, form):
        tracemalloc.start()
        try:
            model = compile_model(full_class, variant, form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = row_arrays(model.rows) + column_arrays(model.variables)
        assert peak <= 1.25 * sum(array.nbytes for array in arrays)

    def test_spread_rows_match_the_materialized_packing(self, full_class):
        """The dev spread block, handed over as a per-pair part plus a
        per-family one, packs to the (pairs, 4, 2n + 1) column array it was
        once built as."""
        roster = full_class
        rows = compile_model(roster, DEV).rows
        n, n_c = len(roster.students), roster.num_companies
        ordered = [(c, c2) for c in range(n_c) for c2 in range(n_c) if c2 != c]
        spread = np.array(ordered, dtype=np.int64).reshape(-1, 1, 2)
        x_part = x_column(np.arange(n)[None, :, None], spread, n_c).transpose(0, 2, 1)
        p = np.arange(len(ordered))
        cols = np.empty((len(p), 4, 2 * n + 1), dtype=np.int32)
        cols[:, :, :-1] = x_part.reshape(len(p), 1, 2 * n)
        cols[:, :2, -1] = (n * n_c + p)[:, None]
        cols[:, 2:, -1] = (n * n_c + len(p) + p)[:, None]
        start = rows.indptr[len(rows) - 4 * len(p)]
        assert rows.cols[start:].tobytes() == cols.tobytes()


def listed_variables(roster: Roster, variant: ModelVariant) -> list[Variable]:
    """The columns as the per-column compiler listed them, one tuple each."""
    students, n_c = roster.students, roster.num_companies
    labels = roster.company_labels
    out = [Variable(f"x[{s.id},{labels[c]}]", VarKind.BINARY, 0.0, 1.0,
                    float(variant is MIN and c == s.old_company))
           for s in students for c in range(n_c)]
    if variant is DEV:
        for name, weight in (("y", roster.aom_weight), ("z", roster.mom_weight)):
            out += [Variable(f"{name}[{labels[c]},{labels[c2]}]", VarKind.CONTINUOUS,
                             0.0, math.inf, weight)
                    for c in range(n_c) for c2 in range(n_c) if c2 != c]
    if variant is PAIRS:
        out += [Variable(f"u[{students[a].id},{students[b].id}]", VarKind.BINARY, 0.0, 1.0, 1.0)
                for a, b in acquainted_pairs(roster)]
    return out


class TestColumnStore:
    def test_columns_are_read_only_arrays(self, tiny_roster):
        columns = compile_model(tiny_roster, DEV).variables
        for array in (columns.kind, columns.lower, columns.upper, columns.objective):
            assert isinstance(array, np.ndarray) and not array.flags.writeable
            assert len(array) == len(columns)
        assert columns.kind.dtype == np.int8

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_indexing_slicing_and_iteration_agree(self, tiny_roster, variant):
        columns = compile_model(tiny_roster, variant).variables
        listed = list(columns)
        assert [columns[j] for j in range(len(columns))] == listed
        assert columns[-1] == listed[-1]
        assert columns[17:] == tuple(listed[17:])
        assert columns[::4] == tuple(listed[::4])
        assert list(columns.names()) == [v.name for v in listed]
        with pytest.raises(IndexError):
            columns[len(columns)]

    def test_variable_tuples_are_packed_once(self):
        variables = (Variable("x", VarKind.BINARY, 0.0, 1.0, 1.0),
                     Variable("y[a,b]", VarKind.CONTINUOUS, -2.5, math.inf, 0.0))
        model = IpModel(MIN, variables, ())
        assert isinstance(model.variables, ColumnStore)
        assert list(model.variables) == list(variables)
        assert model.var_index("y[a,b]") == 1 and model.binary_columns() == [0]
        assert model.variables.lower.tolist() == [0.0, -2.5]

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_every_column_matches_the_per_column_listing(self, variant):
        roster = generate(desk_spec(), seed=7)
        model = compile_model(roster, variant)
        listed = listed_variables(roster, variant)
        assert list(model.variables) == listed
        assert [model.variables[j] for j in range(0, len(listed), 97)] == listed[::97]
        assert model.binary_columns() == [j for j, v in enumerate(listed)
                                          if v.kind is VarKind.BINARY]
