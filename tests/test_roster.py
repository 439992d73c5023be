"""Domain types, structural validation, and the objective evaluators.

The deviation values asserted here were computed by hand from the score
table in ``tiny_roster`` (see conftest) and are frozen as literals, so a
regression in the evaluators cannot hide behind a matching bug in the
test.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohort_shuffle import (
    Roster,
    Student,
    Tolerances,
    check_feasible,
    company_members,
    count_pairs,
    count_same_company,
    deviation_from_sums,
    score_sums,
    validate_roster,
    weighted_deviation,
)
from cohort_shuffle.roster import FEAS_TOL
from cohort_shuffle.simplex import FEAS_EPS
from conftest import balanced_roster, identity_assignment, mk_student

# Deterministic shuffle of tiny_roster used by the frozen-value tests:
# previous sizes (3, 2, 1) -> new companies of size 2 each.
TINY_SHUFFLE = {"s00": 1, "s01": 2, "s02": 1, "s03": 0, "s04": 2, "s05": 0}


class TestValidateRoster:
    def test_clean_roster_has_no_violations(self, tiny_roster):
        assert validate_roster(tiny_roster) == []

    def test_duplicate_id(self, tiny_roster):
        students = tiny_roster.students + (tiny_roster.students[0],)
        bad = Roster(students=students, num_companies=3, battalions=((0, 1, 2),))
        assert "duplicate_id" in {v.code for v in validate_roster(bad)}

    def test_unknown_company_reference(self):
        bad = Roster(students=(mk_student(0, 5),), num_companies=2,
                     battalions=((0, 1),))
        assert "unknown_company" in {v.code for v in validate_roster(bad)}

    def test_negative_and_nonfinite_scores(self):
        bad = Roster(students=(mk_student(0, 0, aom=-1.0),
                               mk_student(1, 0, mom=math.nan),
                               mk_student(2, 0, prt=math.inf)),
                     num_companies=1, battalions=((0,),))
        codes = [v.code for v in validate_roster(bad)]
        assert codes.count("bad_score") == 3

    def test_bad_gender(self):
        bad = Roster(students=(mk_student(0, 0, gender="unknown"),),
                     num_companies=1, battalions=((0,),))
        assert "bad_gender" in {v.code for v in validate_roster(bad)}

    def test_battalions_must_partition_companies(self):
        students = (mk_student(0, 0), mk_student(1, 1))
        for batts in (((0,),), ((0, 1), (1,)), ((0, 0), (1,))):
            bad = Roster(students=students, num_companies=2, battalions=batts)
            assert "bad_battalions" in {v.code for v in validate_roster(bad)}

    def test_unequal_battalions(self):
        students = tuple(mk_student(i, i) for i in range(3))
        bad = Roster(students=students, num_companies=3, battalions=((0, 1), (2,)))
        assert "unequal_battalions" in {v.code for v in validate_roster(bad)}

    def test_conflict_pair_defects(self, tiny_roster):
        bad = Roster(students=tiny_roster.students, num_companies=3,
                     battalions=((0, 1, 2),),
                     conflict_pairs=(("s00", "s00"), ("s01", "ghost")))
        codes = {v.code for v in validate_roster(bad)}
        assert "self_conflict" in codes
        assert "unknown_student" in codes

    def test_inverted_tolerance_bounds(self, tiny_roster):
        tol = Tolerances(merit_min={"aom": 50.0}, merit_max={"aom": 10.0})
        bad = Roster(students=tiny_roster.students, num_companies=3,
                     battalions=((0, 1, 2),), tolerances=tol)
        assert "inverted_bound" in {v.code for v in validate_roster(bad)}

    def test_fraction_out_of_range(self, tiny_roster):
        tol = Tolerances(gender_max={"male": 1.5})
        bad = Roster(students=tiny_roster.students, num_companies=3,
                     battalions=((0, 1, 2),), tolerances=tol)
        assert "bad_fraction" in {v.code for v in validate_roster(bad)}

    def test_window_keys_outside_the_closed_sets(self, tiny_roster):
        # nothing compiles or audits these keys, so they must not pass silently;
        # race keys are free-form labels
        tol = Tolerances(count_max={"taskforce": 0}, merit_min={"gpa": 1.0},
                         gender_max={"nonbinary": 0.0}, race_max={"martian": 0.5},
                         count_min={"all": 1}, merit_max={"prt": 95.0}, gender_min={"female": 0.1})
        bad = Roster(students=tiny_roster.students, num_companies=3,
                     battalions=((0, 1, 2),), tolerances=tol)
        assert [(v.code, v.subject, v.message) for v in validate_roster(bad)] == [
            ("unknown_window_key", "taskforce",
             "max_number[taskforce] names no known key: all, task_force, prior_service"),
            ("unknown_window_key", "gpa", "min_avg_score[gpa] names no known key: aom, mom, prt"),
            ("unknown_window_key", "nonbinary",
             "max_gender[nonbinary] names no known key: male, female"),
        ]

    def test_weights_must_be_convex(self, tiny_roster):
        bad = Roster(students=tiny_roster.students, num_companies=3,
                     battalions=((0, 1, 2),), aom_weight=0.8, mom_weight=0.8)
        assert "bad_weights" in {v.code for v in validate_roster(bad)}

    def test_tolerance_company_subsets_checked(self, tiny_roster):
        tol = Tolerances(min_sapr=1, sapr_companies=frozenset({7}))
        bad = Roster(students=tiny_roster.students, num_companies=3,
                     battalions=((0, 1, 2),), tolerances=tol)
        assert "unknown_company" in {v.code for v in validate_roster(bad)}


class TestAssignmentPlumbing:
    def test_missing_student_raises(self, tiny_roster):
        asg = dict(TINY_SHUFFLE)
        del asg["s03"]
        with pytest.raises(KeyError):
            company_members(tiny_roster, asg)

    def test_out_of_range_company_raises(self, tiny_roster):
        asg = dict(TINY_SHUFFLE, s03=9)
        with pytest.raises(ValueError):
            company_members(tiny_roster, asg)

    def test_company_members_grouping(self, tiny_roster):
        groups = company_members(tiny_roster, TINY_SHUFFLE)
        assert [[s.id for s in g] for g in groups] == [
            ["s03", "s05"], ["s00", "s02"], ["s01", "s04"]]


class TestFeasibilityFamilies:
    """One targeted violation per constraint family."""

    def two_students(self, tol: Tolerances, **flags) -> Roster:
        students = (mk_student(0, 0, **flags), mk_student(1, 1, **flags))
        return Roster(students=students, num_companies=2,
                      battalions=((0, 1),), tolerances=tol)

    def test_auditor_tolerance_is_the_solvers(self):
        # heuristics and the search's incumbent check read FEAS_TOL and
        # the simplex reads FEAS_EPS; a solver point must re-validate under
        # the auditor's.
        assert FEAS_TOL == FEAS_EPS

    def test_count_window(self):
        r = self.two_students(Tolerances(count_max={"all": 1}, count_min={"all": 1}))
        both = {"s00": 0, "s01": 0}
        fams = check_feasible(r, both).families()
        assert fams == {"count_max", "count_min"}
        split = {"s00": 0, "s01": 1}
        assert check_feasible(r, split).feasible

    def test_quality_count(self):
        r = self.two_students(Tolerances(count_max={"task_force": 1}),
                              is_task_force=True)
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"count_max"}

    def test_merit_window_uses_sums_times_size(self):
        # members with aom 4 and 16: average 10 exactly on the bound passes
        students = (mk_student(0, 0, aom=4.0), mk_student(1, 1, aom=16.0))
        tol = Tolerances(merit_max={"aom": 10.0})
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 0}).feasible
        tol = Tolerances(merit_max={"aom": 9.0})
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"merit_max"}
        assert check_feasible(r, {"s00": 1, "s01": 0}).families() == {"merit_max"}

    def test_merit_min(self):
        students = (mk_student(0, 0, aom=4.0), mk_student(1, 1, aom=16.0))
        tol = Tolerances(merit_min={"aom": 11.0})
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"merit_min"}

    def test_gender_fractions(self):
        students = (mk_student(0, 0, gender="male"), mk_student(1, 1, gender="male"))
        tol = Tolerances(gender_max={"male": 0.5})
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"gender_max"}
        tol = Tolerances(gender_min={"female": 0.5})
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"gender_min"}

    def test_race_fractions(self):
        students = (mk_student(0, 0, race="other"), mk_student(1, 1, race="other"))
        tol = Tolerances(race_min={"white": 0.25})
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"race_min"}

    def test_sport_cap(self):
        r = self.two_students(Tolerances(sport_max={"football": 1}),
                              sports=frozenset({"football"}))
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"sport_cap"}

    def test_sapr_minimum_respects_company_subset(self):
        students = (mk_student(0, 0, is_sapr_guide=True), mk_student(1, 1))
        tol = Tolerances(min_sapr=1, sapr_companies=frozenset({0}))
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 1}).feasible
        # guide leaves the only audited company
        assert check_feasible(r, {"s00": 1, "s01": 0}).families() == {"sapr_min"}

    def test_international_exact_count(self):
        students = (mk_student(0, 0, is_international=True),
                    mk_student(1, 1, is_international=True))
        tol = Tolerances(num_intl=1)
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=tol)
        assert check_feasible(r, {"s00": 0, "s01": 1}).feasible
        assert check_feasible(r, {"s00": 0, "s01": 0}).families() == {"intl_count"}

    def test_conflict_pair(self):
        students = (mk_student(0, 0), mk_student(1, 1))
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   conflict_pairs=(("s00", "s01"),))
        assert check_feasible(r, {"s00": 1, "s01": 1}).families() == {"conflict"}
        assert check_feasible(r, {"s00": 0, "s01": 1}).feasible

    def test_battalion_lock(self):
        students = (mk_student(0, 0, battalion_locked=True), mk_student(1, 2))
        r = Roster(students=students, num_companies=4,
                   battalions=((0, 1), (2, 3)))
        assert check_feasible(r, {"s00": 1, "s01": 2}).feasible
        assert check_feasible(r, {"s00": 2, "s01": 2}).families() == {"battalion_lock"}

    def test_no_stay_only_when_requested(self, tiny_roster):
        identity = identity_assignment(tiny_roster)
        assert check_feasible(tiny_roster, identity).feasible
        report = check_feasible(tiny_roster, identity, forbid_same_company=True)
        assert report.families() == {"no_stay"}
        assert len(report.violations) == 6


class TestObjectives:
    def test_count_same_company(self, tiny_roster):
        assert count_same_company(tiny_roster, identity_assignment(tiny_roster)) == 6
        assert count_same_company(tiny_roster, TINY_SHUFFLE) == 0

    def test_count_pairs_identity_is_binomial_sum(self, tiny_roster):
        # previous sizes (3, 2, 1) -> C(3,2) + C(2,2) + 0 = 4
        assert count_pairs(tiny_roster, identity_assignment(tiny_roster)) == 4

    def test_count_pairs_after_shuffle(self, tiny_roster):
        # only s00 and s02 (both previously company C1) are co-located again
        assert count_pairs(tiny_roster, TINY_SHUFFLE) == 1

    def test_score_sums(self, tiny_roster):
        assert score_sums(tiny_roster, TINY_SHUFFLE, "aom") == [60.0, 20.0, 40.0]
        assert score_sums(tiny_roster, TINY_SHUFFLE, "mom") == [37.0, 8.0, 13.0]
        with pytest.raises(KeyError):
            score_sums(tiny_roster, TINY_SHUFFLE, "gpa")

    def test_weighted_deviation_frozen_value(self, tiny_roster):
        # AOM sums (60, 20, 40): pairwise gaps 40+20+20 doubled -> 160
        # MOM sums (37, 8, 13): pairwise gaps 29+24+5 doubled -> 116
        # 0.5 * 160 + 0.5 * 116 = 138
        assert weighted_deviation(tiny_roster, TINY_SHUFFLE) == pytest.approx(138.0)

    def test_deviation_zero_when_sums_equal(self):
        assert deviation_from_sums([5.0, 5.0], [2.0, 2.0], 0.5, 0.5) == 0.0

    def test_single_company_has_no_pairs_to_compare(self):
        assert deviation_from_sums([7.0], [3.0], 0.5, 0.5) == 0.0


@given(a=st.lists(st.integers(0, 50).map(float), min_size=1, max_size=5),
       m=st.lists(st.integers(0, 50).map(float), min_size=1, max_size=5))
@settings(deadline=None, max_examples=60)
def test_deviation_is_weighted_sum_of_metric_deviations(a, m):
    n = min(len(a), len(m))
    a, m = a[:n], m[:n]
    full = deviation_from_sums(a, m, 0.3, 0.7)
    a_only = deviation_from_sums(a, [0.0] * n, 1.0, 0.0)
    m_only = deviation_from_sums([0.0] * n, m, 0.0, 1.0)
    assert full == pytest.approx(0.3 * a_only + 0.7 * m_only)
    assert full >= 0.0


@given(perm=st.permutations(list(range(4))))
@settings(deadline=None, max_examples=24)
def test_deviation_invariant_under_company_relabeling(perm):
    a = [3.0, 11.0, 7.0, 2.0]
    m = [1.0, 5.0, 9.0, 4.0]
    base = deviation_from_sums(a, m, 0.5, 0.5)
    shuffled = deviation_from_sums([a[i] for i in perm], [m[i] for i in perm], 0.5, 0.5)
    assert shuffled == pytest.approx(base)


@given(seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_identity_assignment_of_bare_roster_is_feasible(seed):
    import random

    rng = random.Random(seed)
    r = balanced_roster(rng.randint(1, 4), rng.randint(1, 4))
    assert check_feasible(r, identity_assignment(r)).feasible
