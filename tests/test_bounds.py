"""Pigeonhole lower bound, gap arithmetic, and result certification."""

from __future__ import annotations

import math

import pytest

from cohort_shuffle import (
    ModelVariant,
    Roster,
    SolveOptions,
    SolveStatus,
    balanced_spec,
    certify,
    compile_model,
    count_pairs,
    cyclic_deal,
    generate,
    optimality_gap,
    pairs_lower_bound,
    solve_ip,
    solve_roster,
)
from cohort_shuffle.bounds import objective_floor
from cohort_shuffle.branch_bound import SolveResult, SolveStats
from conftest import balanced_roster, mk_student, oracle_best, oracle_instance

MIN = ModelVariant.MIN_SAME_COMPANY
DEV = ModelVariant.MERIT_DEVIATION
PAIRS = ModelVariant.MIN_PAIRS


def roster_from_sizes(sizes) -> Roster:
    students = tuple(mk_student(i, c)
                     for i, (c, k) in enumerate((c, k)
                                                for c, n in enumerate(sizes)
                                                for k in range(n)))
    return Roster(students=students, num_companies=len(sizes),
                  battalions=(tuple(range(len(sizes))),))


class TestPairsLowerBound:
    def test_per_company_excess(self):
        r = roster_from_sizes([5, 3, 2, 4])
        report = pairs_lower_bound(r)
        # 4 companies leave 3 destinations: only the size-5 and size-4
        # companies overflow
        assert report.per_company == ((5, 2), (3, 0), (2, 0), (4, 1))
        assert report.total == 3
        assert report.company_bound(0) == 2
        assert report.company_bound(2) == 0

    def test_all_companies_fit(self):
        r = roster_from_sizes([2, 2, 2])
        assert pairs_lower_bound(r).total == 0

    def test_single_company_rejected(self):
        r = roster_from_sizes([4])
        with pytest.raises(ValueError):
            pairs_lower_bound(r)

    def test_bound_is_attained_by_the_cyclic_deal(self):
        for n_c, size in ((3, 4), (4, 6), (5, 7)):
            r = balanced_roster(n_c, size)
            assert count_pairs(r, cyclic_deal(r)) == pairs_lower_bound(r).total


class TestObjectiveFloor:
    def test_pairs_floor_deals_each_company_evenly(self):
        # 3 destinations: 7 students go 3+2+2 (3 + 1 + 1 pairs), 4 go 2+1+1
        r = roster_from_sizes([7, 3, 2, 4])
        assert objective_floor(r, PAIRS) == 6.0
        assert pairs_lower_bound(r).total == 5
        assert objective_floor(r, MIN) == objective_floor(r, DEV) == 0.0

    def test_floor_never_exceeds_the_exhaustive_optimum(self):
        tighter = 0
        for seed in range(60):
            roster = oracle_instance(seed)
            best = oracle_best(roster, PAIRS)
            floor = objective_floor(roster, PAIRS)
            if best is not None:
                assert floor <= best, seed
            tighter += floor > pairs_lower_bound(roster).total
        assert tighter > 0

    @pytest.mark.parametrize("num_companies,size,pairs", [(6, 14, 78.0), (5, 12, 60.0)])
    def test_overfull_balanced_rosters_are_proven(self, num_companies, size, pairs):
        roster = generate(balanced_spec(num_companies, size), seed=1)
        out = solve_roster(roster, PAIRS)
        assert out.result.status is SolveStatus.PROVEN_OPTIMAL
        assert out.result.objective == pairs
        assert out.result.stats.nodes == 0
        assert out.certificate.ok and out.certificate.optimal_by_bound


class TestOptimalityGap:
    def test_closed_gaps(self):
        assert optimality_gap(227.0, 227.0) == 0.0
        assert optimality_gap(295.0, 295.0) == 0.0
        assert optimality_gap(0.0, 0.0) == 0.0

    def test_relative_distance(self):
        assert optimality_gap(12.0, 10.0) == pytest.approx(20.0)
        assert optimality_gap(10.0, 12.0) == pytest.approx(100.0 * 2.0 / 12.0)

    def test_zero_bound_with_positive_solution(self):
        assert optimality_gap(5.0, 0.0) == math.inf


def stats() -> SolveStats:
    return SolveStats(nodes=1, lp_iterations=1, wall_time_s=0.0)


class TestCertify:
    def test_clean_min_solve_certifies(self, tiny_roster):
        res = solve_ip(compile_model(tiny_roster, MIN))
        cert = certify(res, tiny_roster, MIN)
        assert cert.ok and cert.feasible and cert.objective_matches
        assert cert.recomputed_objective == res.objective == 0.0
        assert cert.optimal_by_bound
        assert cert.gap_percent == 0.0
        assert cert.solver_status == "proven_optimal"

    def test_pairs_bound_matches_marks_optimal(self):
        r = balanced_roster(3, 4)
        warm = cyclic_deal(r)
        res = solve_ip(compile_model(r, PAIRS),
                       SolveOptions(warm_start=warm))
        cert = certify(res, r, PAIRS)
        assert cert.ok and cert.optimal_by_bound
        assert cert.bound == 6.0
        assert cert.gap_percent == 0.0

    def test_misreported_objective_is_caught(self, tiny_roster):
        res = solve_ip(compile_model(tiny_roster, MIN))
        lied = SolveResult(res.status, res.assignment, 3.0, res.bound, stats(), res.primal)
        cert = certify(lied, tiny_roster, MIN)
        assert not cert.ok
        assert cert.feasible and not cert.objective_matches
        assert any("recomputed" in n for n in cert.notes)

    def test_infeasible_assignment_is_caught(self, tiny_roster):
        identity = {s.id: s.old_company for s in tiny_roster.students}
        fake = SolveResult(SolveStatus.PROVEN_OPTIMAL, identity, 0.0, 0.0, stats(), None)
        cert = certify(fake, tiny_roster, DEV)
        assert not cert.ok and not cert.feasible
        assert any("no_stay" in n for n in cert.notes)

    def test_result_without_assignment(self, tiny_roster):
        empty = SolveResult(SolveStatus.INFEASIBLE, None, None, math.inf, stats(), None)
        cert = certify(empty, tiny_roster, MIN)
        assert not cert.ok
        assert cert.notes == ("result carries no assignment to certify",)

    def test_dev_certificate_recomputes_deviation(self):
        from conftest import oracle_instance

        r = oracle_instance(9)
        res = solve_ip(compile_model(r, DEV))
        cert = certify(res, r, DEV)
        assert cert.ok
        assert cert.recomputed_objective == pytest.approx(res.objective, abs=1e-9)
        assert cert.bound <= cert.recomputed_objective
