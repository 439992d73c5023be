"""Synthetic roster generation: determinism, shape, and self-feasibility."""

from __future__ import annotations

import dataclasses
import statistics

import pytest

from cohort_shuffle import (
    GenerationError,
    GenSpec,
    balanced_spec,
    check_feasible,
    desk_spec,
    generate,
    reference_spec,
    reference_company_sizes,
    validate_roster,
)
from conftest import identity_assignment


class TestDeterminismAndShape:
    def test_same_spec_and_seed_twice(self):
        spec = desk_spec()
        assert generate(spec, seed=42) == generate(spec, seed=42)

    def test_different_seeds_differ(self):
        spec = desk_spec()
        assert generate(spec, seed=1) != generate(spec, seed=2)

    def test_desk_shape(self):
        r = generate(desk_spec(), seed=0)
        assert r.num_companies == 8
        assert len(r.students) == 64
        assert r.company_sizes() == [8] * 8
        assert len(r.conflict_pairs) == 4
        assert validate_roster(r) == []

    def test_custom_small_shape(self):
        r = generate(desk_spec(num_companies=3, company_size=4,
                               num_conflict_pairs=0), seed=0)
        assert len(r.students) == 12
        assert r.company_sizes() == [4, 4, 4]

    def test_battalions_partition_evenly(self):
        r = generate(desk_spec(num_companies=6, company_size=4, num_battalions=3), seed=1)
        assert r.battalions == ((0, 1), (2, 3), (4, 5))

    def test_student_ids_unique_and_sequential(self):
        r = generate(desk_spec(), seed=0)
        assert len({s.id for s in r.students}) == len(r.students)
        assert r.students[0].id == "s0001"


@pytest.fixture(scope="module")
def roster_2023():
    return generate(reference_spec(2023), seed=7)


class TestPaperScale:
    def test_reference_sizes_are_used(self, roster_2023):
        assert roster_2023.num_companies == 30
        assert tuple(roster_2023.company_sizes()) == reference_company_sizes(2023)
        assert len(roster_2023.students) == sum(reference_company_sizes(2023))

    def test_one_international_student_per_company(self, roster_2023):
        per_company = [0] * 30
        for s in roster_2023.students:
            if s.is_international:
                per_company[s.old_company] += 1
        assert per_company == [1] * 30
        assert roster_2023.tolerances.num_intl == 1

    def test_structurally_valid(self, roster_2023):
        assert validate_roster(roster_2023) == []

    def test_feasible_under_its_own_tolerances(self, roster_2023):
        report = check_feasible(roster_2023, identity_assignment(roster_2023))
        assert report.feasible, sorted(report.families())

    def test_calibration_envelope(self, roster_2023):
        aom = [s.aom for s in roster_2023.students]
        assert min(aom) >= 444.0 and max(aom) <= 680.0
        assert statistics.mean(aom) == pytest.approx(547.57, abs=10.0)
        mom = [s.mom for s in roster_2023.students]
        assert min(mom) >= 455.0 and max(mom) <= 649.0
        prt = [s.prt for s in roster_2023.students]
        assert min(prt) >= 86.0 and max(prt) <= 93.0
        male = sum(1 for s in roster_2023.students if s.gender == "male")
        assert 0.68 <= male / len(roster_2023.students) <= 0.76

    def test_class_years_differ_in_size(self):
        assert sum(reference_company_sizes(2023)) != sum(reference_company_sizes(2024))

    def test_unknown_class_year(self):
        with pytest.raises(GenerationError):
            reference_company_sizes(1999)


class TestBalancedAndErrors:
    def test_balanced_spec_is_bare(self):
        r = generate(balanced_spec(4, 5), seed=0)
        assert r.company_sizes() == [5] * 4
        assert r.conflict_pairs == ()
        assert r.tolerances.count_min == {}
        assert r.tolerances.num_intl is None
        assert not any(s.battalion_locked for s in r.students)

    def test_uneven_battalion_split_rejected(self):
        with pytest.raises(GenerationError):
            generate(desk_spec(num_companies=8, num_battalions=3), seed=0)

    def test_no_companies_rejected(self):
        with pytest.raises(GenerationError):
            generate(dataclasses.replace(desk_spec(), num_companies=0,
                                         num_battalions=1), seed=0)

    def test_contradictory_population_counts_rejected(self):
        spec = dataclasses.replace(desk_spec(num_companies=3, company_size=2),
                                   intl_per_company=3)
        with pytest.raises(GenerationError):
            generate(spec, seed=0)

    def test_mismatched_size_list_rejected(self):
        spec = GenSpec(num_companies=4, num_battalions=1, company_sizes=(5, 5))
        with pytest.raises(GenerationError):
            generate(spec, seed=0)

    @pytest.mark.parametrize("shape", [{"company_size": 0},
                                       {"company_size": None, "company_sizes": (5, 0, 5)},
                                       {"company_size": -3}])
    def test_a_company_size_below_1_is_rejected(self, shape):
        """Balanced rosters need no per-company population, so without the
        check a size of 0 writes an empty roster."""
        spec = dataclasses.replace(balanced_spec(3, 5), **shape)
        with pytest.raises(GenerationError, match="every company needs at least 1 student"):
            generate(spec, seed=0)

    def test_size_range_draws_stay_inside(self):
        spec = GenSpec(num_companies=6, num_battalions=1, size_range=(3, 5),
                       intl_per_company=0, sapr_per_company=0,
                       num_conflict_pairs=0)
        r = generate(spec, seed=9)
        assert all(3 <= n <= 5 for n in r.company_sizes())


class TestFeasibilityByConstruction:
    @pytest.mark.parametrize("seed", range(6))
    def test_desk_instances_accept_their_old_assignment(self, seed):
        r = generate(desk_spec(), seed=seed)
        assert check_feasible(r, identity_assignment(r)).feasible

    @pytest.mark.parametrize("seed", range(3))
    def test_conflict_pairs_span_companies_and_genders(self, seed):
        r = generate(desk_spec(), seed=seed)
        by_id = {s.id: s for s in r.students}
        for a, b in r.conflict_pairs:
            assert by_id[a].old_company != by_id[b].old_company
            assert by_id[a].gender != by_id[b].gender
