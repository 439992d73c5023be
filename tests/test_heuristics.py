"""Constructive assignments and local-search descent."""

from __future__ import annotations

import dataclasses
import math
import random
import time
from collections import deque

import numpy as np
import pytest

from cohort_shuffle import (
    ModelVariant,
    Roster,
    SolveOptions,
    SolveStatus,
    Tolerances,
    assignment_objective,
    balanced_spec,
    build_warm_start,
    check_feasible,
    count_pairs,
    count_same_company,
    cyclic_deal,
    desk_spec,
    generate,
    local_search,
    reference_spec,
    rotate_within_battalions,
    solve_roster,
    weighted_deviation,
)
from cohort_shuffle import heuristics, pipeline
from cohort_shuffle.bounds import objective_floor
from cohort_shuffle.compiler import compile_model
from cohort_shuffle.heuristics import EPS, MoveEvaluator, _take_first, descend
from cohort_shuffle.roster import FEAS_TOL, deviation_from_sums
from conftest import balanced_roster, identity_assignment, mk_student, oracle_instance

MIN = ModelVariant.MIN_SAME_COMPANY
DEV = ModelVariant.MERIT_DEVIATION
PAIRS = ModelVariant.MIN_PAIRS

#: the oracle rosters and five desk rosters, as (kind, seed)
ROSTERS = [
    *(pytest.param(("oracle", seed), id=f"oracle-{seed}") for seed in range(60)),
    *(pytest.param(("desk", seed), id=f"desk-{seed}") for seed in (1, 2, 3, 4, 7)),
]


class TestCyclicDeal:
    def test_everyone_moves(self, tiny_roster):
        deal = cyclic_deal(tiny_roster)
        assert count_same_company(tiny_roster, deal) == 0

    def test_no_pairs_when_companies_fit(self):
        # sizes <= |C| - 1, so dealing scatters every previous company fully
        r = balanced_roster(5, 4)
        assert count_pairs(r, cyclic_deal(r)) == 0

    @pytest.mark.parametrize("num_companies,size", [(3, 3), (3, 4), (4, 5), (5, 8), (8, 8)])
    def test_pairs_meet_the_pigeonhole_excess(self, num_companies, size):
        r = balanced_roster(num_companies, size)
        expected = num_companies * max(0, size - (num_companies - 1))
        assert count_pairs(r, cyclic_deal(r)) == expected

    def test_preserves_company_sizes_on_balanced_rosters(self):
        r = balanced_roster(4, 6)
        deal = cyclic_deal(r)
        sizes = [0] * 4
        for c in deal.values():
            sizes[c] += 1
        assert sizes == [6, 6, 6, 6]

    def test_deterministic(self, tiny_roster):
        assert cyclic_deal(tiny_roster) == cyclic_deal(tiny_roster)


class TestRotation:
    def test_stays_inside_each_battalion(self):
        r = generate(desk_spec(num_companies=4, company_size=3, num_battalions=2), seed=5)
        rot = rotate_within_battalions(r)
        for s in r.students:
            old_batt = r.battalion_of(s.old_company)
            assert rot[s.id] in r.battalions[old_batt]
            assert rot[s.id] != s.old_company

    def test_full_shift_is_identity(self):
        r = generate(desk_spec(num_companies=4, company_size=3, num_battalions=2), seed=5)
        rot = rotate_within_battalions(r, shift=2)  # battalion size is 2
        assert rot == identity_assignment(r)

    def test_rotation_preserves_company_sizes(self):
        r = generate(desk_spec(), seed=3)
        rot = rotate_within_battalions(r)
        sizes = [0] * r.num_companies
        for c in rot.values():
            sizes[c] += 1
        assert sizes == r.company_sizes()

    def test_generated_roster_stays_feasible_under_rotation(self):
        r = generate(desk_spec(), seed=3)
        rot = rotate_within_battalions(r)
        assert check_feasible(r, rot, forbid_same_company=True).feasible


class TestLocalSearch:
    def objective(self, roster, asg, variant):
        if variant is MIN:
            return float(count_same_company(roster, asg))
        if variant is PAIRS:
            return float(count_pairs(roster, asg))
        return weighted_deviation(roster, asg)

    @pytest.mark.parametrize("variant", [MIN, DEV, PAIRS])
    def test_never_worsens_the_objective(self, tiny_roster, variant):
        start = cyclic_deal(tiny_roster)
        before = self.objective(tiny_roster, start, variant)
        out = local_search(tiny_roster, start, variant, budget=50)
        assert self.objective(tiny_roster, out, variant) <= before + 1e-9

    def test_unconstrained_identity_descends_to_zero_stays(self):
        r = balanced_roster(3, 2)
        out = local_search(r, identity_assignment(r), MIN, budget=50)
        assert count_same_company(r, out) == 0

    @pytest.mark.parametrize("variant", [DEV, PAIRS])
    def test_feasible_start_stays_feasible(self, desk_roster, variant):
        start = rotate_within_battalions(desk_roster)
        out = local_search(desk_roster, start, variant, budget=40)
        assert check_feasible(desk_roster, out, forbid_same_company=True).feasible

    def test_zero_budget_returns_the_start(self, tiny_roster):
        start = cyclic_deal(tiny_roster)
        assert local_search(tiny_roster, start, MIN, budget=0) == start

    def test_same_seed_same_result(self, desk_roster):
        start = rotate_within_battalions(desk_roster)
        a = local_search(desk_roster, start, DEV, budget=25, seed=4)
        b = local_search(desk_roster, start, DEV, budget=25, seed=4)
        assert a == b

    def test_does_not_mutate_the_start(self, tiny_roster):
        start = identity_assignment(tiny_roster)
        frozen = dict(start)
        local_search(tiny_roster, start, MIN, budget=50)
        assert start == frozen

    @pytest.mark.parametrize("num_companies,start", [
        (2, {"s00": 0, "s01": 0}),
        # nobody stays, so only the violation can fall
        (3, {"s00": 1, "s01": 0, "s02": 0}),
    ])
    def test_infeasible_start_is_repaired(self, num_companies, start):
        students = tuple(mk_student(c, c) for c in range(len(start)))
        r = Roster(students=students, num_companies=num_companies,
                   battalions=(tuple(range(num_companies)),),
                   tolerances=Tolerances(count_max={"all": 1}))
        out = local_search(r, start, MIN, budget=10)
        assert check_feasible(r, out).feasible
        assert count_same_company(r, out) == 0


    def test_feasible_start_at_the_floor_tries_no_move(self, monkeypatch):
        r = balanced_roster(3, 3)  # the deal meets the pigeonhole bound of 3
        deal = cyclic_deal(r)
        ev = MoveEvaluator(compile_model(r, PAIRS))
        ev.load([deal[s.id] for s in r.students])
        assert ev.violation == 0.0 and ev.objective == 3.0
        tried = []
        monkeypatch.setattr(ev, "try_moves", lambda moves: tried.append(moves) or False)
        descend(ev, random.Random(0), 100, 3.0)
        assert tried == []

    def test_a_passed_deadline_tries_no_move(self, monkeypatch):
        r = generate(desk_spec(), seed=7)
        ev = MoveEvaluator(compile_model(r, DEV))
        ev.load([s.old_company for s in r.students])  # everyone stays: infeasible
        tried = []
        monkeypatch.setattr(ev, "try_moves", lambda moves: tried.append(moves) or False)
        descend(ev, random.Random(0), 100, 0.0, deadline=time.monotonic() - 1.0)
        assert tried == []


class TestWarmStart:
    def test_stops_at_the_first_start_at_the_floor(self, monkeypatch):
        r = generate(desk_spec(), seed=7)
        calls = []
        real = pipeline.local_search

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "local_search", counted)
        warm = build_warm_start(r, MIN)
        assert len(calls) == 1  # the descended deal already has no stays
        assert check_feasible(r, warm).feasible
        assert count_same_company(r, warm) == 0

    def test_a_passed_deadline_returns_an_undescended_start(self):
        r = generate(desk_spec(), seed=7)
        starts = [cyclic_deal(r), rotate_within_battalions(r),
                  rotate_within_battalions(r, shift=2)]
        warm = build_warm_start(r, DEV, deadline=time.monotonic() - 1.0)
        assert warm in starts
        assert warm != build_warm_start(r, DEV)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_a_passed_deadline_builds_no_evaluator(self, compiled, monkeypatch):
        """Past the deadline no descent can move, so neither the model nor
        the move evaluator is built.  The cheaper feasible start, the second
        battalion rotation, is returned as it is."""
        r = generate(desk_spec(), seed=7)
        model = compile_model(r, DEV) if compiled else None

        def refuse(*args, **kwargs):
            raise AssertionError("built past the deadline")

        monkeypatch.setattr(pipeline, "MoveEvaluator", refuse)
        monkeypatch.setattr(pipeline, "compile_model", refuse)
        warm = build_warm_start(r, DEV, model=model, deadline=time.monotonic() - 1)
        assert warm == rotate_within_battalions(r, shift=2)

    def test_a_full_solve_does_no_rebuild_work(self, monkeypatch):
        # dev's floor of 0 is never met, so all three starts are descended
        r = generate(desk_spec(), seed=7)
        descents, shuffled, compiled = [], [], []
        real_search, real_shuffle = pipeline.local_search, random.Random.shuffle

        def counted_search(*args, **kwargs):
            descents.append(args)
            return real_search(*args, **kwargs)

        def counted_shuffle(rng, x):
            shuffled.append(len(x))
            return real_shuffle(rng, x)

        def counted_compile(*args, **kwargs):
            compiled.append(args)
            return compile_model(*args, **kwargs)

        monkeypatch.setattr(pipeline, "local_search", counted_search)
        monkeypatch.setattr(random.Random, "shuffle", counted_shuffle)
        for module in (pipeline, heuristics):
            monkeypatch.setattr(module, "compile_model", counted_compile)
        out = solve_roster(r, DEV, SolveOptions(node_limit=0))
        assert out.certificate.ok
        assert len(descents) == 3
        assert shuffled.count(len(r.students) * r.num_companies) == 1
        assert compiled == [(r, DEV)]

    def test_a_model_of_another_roster_or_variant_is_rejected(self):
        r = generate(desk_spec(), seed=7)
        for model in (compile_model(r, PAIRS), compile_model(generate(desk_spec(), seed=8), DEV)):
            with pytest.raises(ValueError, match="not compiled from this roster"):
                build_warm_start(r, DEV, model=model)
        same = build_warm_start(r, DEV, model=compile_model(generate(desk_spec(), seed=7), DEV))
        assert same == build_warm_start(r, DEV)

    def test_desk_seed_111_pairs_is_proven_at_the_bound(self):
        r = generate(desk_spec(), seed=111)
        out = solve_roster(r, PAIRS, SolveOptions(node_limit=0))
        assert out.result.status is SolveStatus.PROVEN_OPTIMAL
        assert out.result.objective == 8.0
        assert out.certificate.ok

    def test_one_company_min_is_proven_without_a_deal(self):
        """There is no other company to deal over, so the warm start skips the
        deal and the rotations keep all five students where they were."""
        r = generate(dataclasses.replace(desk_spec(1, 5, 1, 0), intl_per_company=0,
                                         sapr_per_company=0), 1)
        out = solve_roster(r, MIN)
        assert out.result.status is SolveStatus.PROVEN_OPTIMAL
        assert out.result.objective == 5.0
        assert out.certificate.ok

    def test_the_time_limit_counts_the_warm_start(self, monkeypatch):
        """The search gets what the compile and the warm start left of the limit."""
        real_warm, real_solve = pipeline.build_warm_start, pipeline.solve_ip
        limits = []

        def slow_warm(*args, **kwargs):
            time.sleep(0.2)
            return real_warm(*args, **kwargs)

        def captured(model, opts):
            limits.append(opts.time_limit_s)
            return real_solve(model, opts)

        monkeypatch.setattr(pipeline, "build_warm_start", slow_warm)
        monkeypatch.setattr(pipeline, "solve_ip", captured)
        r = generate(desk_spec(), seed=7)
        solve_roster(r, DEV, SolveOptions(node_limit=0, time_limit_s=10.0))
        solve_roster(r, DEV, SolveOptions(node_limit=0, time_limit_s=0.1))
        solve_roster(r, DEV, SolveOptions(node_limit=0))
        assert 0.0 < limits[0] <= 9.8
        assert limits[1:] == [0.0, None]


class TestFullScale:
    """Full-class solves (reference 2023, 1,097 students) with no tree search."""

    @pytest.fixture(scope="class")
    def roster(self):
        return generate(reference_spec(2023), seed=1)

    def test_min_is_proven_at_zero(self, roster):
        out = solve_roster(roster, MIN, SolveOptions(node_limit=0))
        assert out.certificate.ok
        assert out.result.status is SolveStatus.PROVEN_OPTIMAL
        assert out.result.objective == 0.0

    def test_pairs_keeps_the_descended_warm_start(self, roster):
        out = solve_roster(roster, PAIRS, SolveOptions(node_limit=0))
        assert out.certificate.ok
        assert out.result.objective >= objective_floor(roster, PAIRS)
        # the descended first battalion rotation, the best of the three starts
        assert assignment_objective(roster, out.warm_start, PAIRS) == 13137.0

    def test_dev_keeps_the_descended_warm_start(self, roster):
        out = solve_roster(roster, DEV, SolveOptions(node_limit=0))
        assert out.certificate.ok
        assert out.result.status is SolveStatus.FEASIBLE_GAP
        assert out.result.bound == 0.0
        warm = assignment_objective(roster, out.warm_start, DEV)
        assert warm == pytest.approx(489170.3398499417, rel=1e-9, abs=0.0)


class TestMoveEvaluator:
    """The incremental evaluator against the independent auditor."""

    def assert_agrees(self, roster, ev, variant):
        asg = {s.id: ev.asg[i] for i, s in enumerate(roster.students)}
        feasible = check_feasible(roster, asg, forbid_same_company=variant is not MIN).feasible
        assert (ev.violation == 0.0) == feasible
        assert ev.objective == pytest.approx(assignment_objective(roster, asg, variant), abs=1e-9)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_moves_agree_with_the_auditor(self, seed):
        roster = oracle_instance(seed)
        rng = random.Random(seed)
        n, n_c = len(roster.students), roster.num_companies
        for variant in ModelVariant:
            ev = MoveEvaluator(compile_model(roster, variant))
            ev.load([rng.randrange(n_c) for _ in range(n)])
            self.assert_agrees(roster, ev, variant)
            for _ in range(20):
                i, j = rng.sample(range(n), 2)
                if rng.random() < 0.5:
                    ev.apply(((i, rng.randrange(n_c)),))
                elif ev.asg[i] != ev.asg[j]:
                    ev.apply(((i, ev.asg[j]), (j, ev.asg[i])))
                self.assert_agrees(roster, ev, variant)
            descend(ev, rng, 10 * n, -math.inf)
            self.assert_agrees(roster, ev, variant)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_loading_after_a_descent_matches_a_fresh_evaluator(self, variant):
        roster = generate(desk_spec(), seed=7)
        model = compile_model(roster, variant)
        ev, fresh = MoveEvaluator(model), MoveEvaluator(model)
        first, second = cyclic_deal(roster), rotate_within_battalions(roster)
        ev.load([first[s.id] for s in roster.students])
        descend(ev, random.Random(0), 200, -math.inf)
        assert ev.asg != [first[s.id] for s in roster.students]
        ev.load([second[s.id] for s in roster.students])
        fresh.load([second[s.id] for s in roster.students])
        for attr in ("act", "viol", "bad", "violation", "objective", "cohort", "sums", "asg", "hot",
                     "sum_index"):
            assert getattr(ev, attr) == getattr(fresh, attr), attr

    @staticmethod
    def state(attrs):
        """A copy of everything a move changes, from an evaluator's ``vars``."""
        return {"asg": list(attrs["asg"]), "act": list(attrs["act"]),
                "viol": list(attrs["viol"]), "hot": list(attrs["hot"]),
                "cohort": [list(row) for row in attrs["cohort"]],
                "sums": tuple(list(sums) for sums in attrs["sums"]),
                **{key: attrs[key] for key in ("bad", "violation", "objective", "sum_index")}}

    def assert_every_verdict(self, ev, probe, taken):
        """``try_moves`` on every relocation and swap from ``ev``'s
        assignment, against the rule worked out on ``probe``, an evaluator
        of the same model that makes the move: a start with violated rows
        takes a move that adds no violation beyond ``EPS`` and lowers the
        violation or else the objective; a feasible one takes a move that
        breaks no row and lowers the objective.  Counts each verdict in
        ``taken`` and leaves ``ev`` as it was."""
        n, n_c = ev.n, ev.n_c
        probe.load(ev.asg)
        assert probe.hot == ev.hot
        start = self.state(vars(ev))
        moves = [((i, c),) for i in range(n) for c in range(n_c) if c != ev.asg[i]]
        moves += [((i, ev.asg[j]), (j, ev.asg[i]))
                  for i in range(n) for j in range(i + 1, n) if ev.asg[i] != ev.asg[j]]
        for move in moves:
            for target in (ev, probe):
                vars(target).update(self.state(start))
            probe.apply(move)
            if start["bad"]:
                allowed = probe.violation <= start["violation"] + EPS
            else:
                allowed = probe.bad == 0
            lower = (probe.violation < start["violation"] - EPS
                     or probe.objective < start["objective"] - EPS)
            assert ev.try_moves(move) == (allowed and lower), (ev.variant, move)
            if allowed and lower:
                assert self.state(vars(ev)) == self.state(vars(probe))
            taken[allowed and lower] += 1
        vars(ev).update(start)

    @pytest.mark.parametrize("roster", ROSTERS)
    def test_every_verdict_follows_the_lexicographic_rule(self, roster):
        kind, seed = roster
        roster = oracle_instance(seed) if kind == "oracle" else generate(desk_spec(), seed=seed)
        rng = random.Random(seed)
        n, n_c = len(roster.students), roster.num_companies
        taken = {True: 0, False: 0}
        for variant in ModelVariant:
            model = compile_model(roster, variant)
            ev, probe = MoveEvaluator(model), MoveEvaluator(model)
            ev.load([rng.randrange(n_c) for _ in range(n)])
            # a random start, the same after a few repair moves, and descended
            for budget, feasible in ((0, False), (3, False), (10 * n, True)):
                descend(ev, rng, budget, -math.inf)
                if (ev.bad == 0) == feasible:
                    self.assert_every_verdict(ev, probe, taken)
        assert taken[False] > 0

    @pytest.mark.parametrize("kind", ["balanced-6x14", "equal-scores", "large-scores"])
    def test_every_dev_verdict_follows_the_lexicographic_rule(self, kind):
        """``dev`` moves screened on the sorted-sum delta: on a bare roster;
        on one whose scores are all equal, so that its company sums tie (the
        screen's bisects land on equal sums) or, at equal sizes, are all
        equal with objective 0, which no move can lower while the sums are
        large; and on one whose scores take three values near 1e9, where
        many moves change the objective by less than both computations'
        rounding, which the screen's bound must cover."""
        rng = random.Random(5)
        if kind == "equal-scores":
            roster = balanced_roster(4, 6, tolerances=Tolerances(count_min={"all": 5},
                                                                 count_max={"all": 7}))
        elif kind == "large-scores":
            values = [rng.uniform(1e8, 1e9) for _ in range(3)]
            students = tuple(mk_student(c * 6 + k, c, aom=rng.choice(values),
                                        mom=rng.choice(values))
                             for c in range(5) for k in range(6))
            roster = Roster(students=students, num_companies=5, battalions=(tuple(range(5)),))
        else:
            roster = generate(balanced_spec(6, 14), seed=1)
        n, n_c = len(roster.students), roster.num_companies
        model = compile_model(roster, DEV)
        ev, probe = MoveEvaluator(model), MoveEvaluator(model)
        deal = [cyclic_deal(roster)[s.id] for s in roster.students]
        taken = {True: 0, False: 0}
        starts = {"random": [rng.randrange(n_c) for _ in range(n)], "deal": deal}
        if kind == "equal-scores":
            # companies of 6, 7, 5 and 6 students: two sums tie, two are one score off
            starts["ties"] = deal[:1] + [1] + deal[2:]
        for name, start in starts.items():
            ev.load(start)
            if name == "deal":
                assert ev.bad == 0 and (ev.objective == 0.0) == (kind == "equal-scores")
            if name == "ties":
                assert ev.bad == 0 and sorted(ev.sums[0]) == [2500.0, 3000.0, 3000.0, 3500.0]
            self.assert_every_verdict(ev, probe, taken)
            descend(ev, rng, 3, -math.inf)
            self.assert_every_verdict(ev, probe, taken)
        assert taken[True] > 0 and taken[False] > 0

    @pytest.mark.parametrize("kind", ["desk", "balanced-6x14", "reference-2023", "equal-scores"])
    def test_deviation_delta_matches_the_recompute(self, kind):
        """The sorted-sum delta of random relocations and swaps against the
        difference of two ``deviation_from_sums`` values, within 1e-9 of the
        objective's scale and within the rounding bound the screen allows,
        from a random start, the cyclic deal and, on equal scores, sums that
        are all equal or tie; some moves are made between the checks."""
        if kind == "equal-scores":
            roster = balanced_roster(5, 6)
        else:
            spec = {"desk": desk_spec(), "balanced-6x14": balanced_spec(6, 14),
                    "reference-2023": reference_spec(2023)}[kind]
            roster = generate(spec, seed=1)
        rng = random.Random(11)
        n, n_c = len(roster.students), roster.num_companies
        ev = MoveEvaluator(compile_model(roster, DEV))
        deal = [cyclic_deal(roster)[s.id] for s in roster.students]
        starts = [[rng.randrange(n_c) for _ in range(n)], deal]
        if kind == "equal-scores":
            starts.append(deal[:1] + [1] + deal[2:])  # sums 2500, 3000, 3000, 3000, 3500
        checked = 0
        for start in starts:
            ev.load(start)
            for step in range(300):
                i, j = rng.sample(range(n), 2)
                if rng.random() < 0.5:
                    move = ((i, rng.randrange(n_c)),)
                else:
                    move = ((i, ev.asg[j]), (j, ev.asg[i]))
                if ev.asg[i] == move[0][1]:
                    assert ev._deviation_change(move) is None
                    continue
                after = deviation_from_sums(*(self.moved(sums, score, ev.asg, move)
                                              for sums, score in zip(ev.sums, ev.scores)),
                                            *ev.weights)
                delta, bound = ev._deviation_change(move)
                exact = after - ev.objective
                assert abs(delta - exact) <= 1e-9 * max(1.0, ev.objective, after), (kind, move)
                assert abs(delta - exact) <= bound
                checked += 1
                if step % 10 == 0:
                    ev.apply(move)
                    assert ev.objective == after
        assert checked > 500

    @staticmethod
    def moved(sums, score, asg, move):
        out = list(sums)
        for i, dst in move:
            out[asg[i]] -= score[i]
            out[dst] += score[i]
        return out

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_local_search_reuses_an_evaluator(self, variant):
        roster = generate(desk_spec(), seed=7)
        ev = MoveEvaluator(compile_model(roster, variant))
        for start in TestRejectionMemo.starts(roster):
            assert (local_search(roster, start, variant, 200, seed=3, evaluator=ev)
                    == local_search(roster, start, variant, 200, seed=3))

    @pytest.mark.parametrize("kind, seed", [("desk", 7), ("oracle", 5), ("oracle", 11),
                                            ("reference", 1)])
    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_build_matches_a_row_by_row_build(self, kind, seed, variant):
        roster = (generate(reference_spec(2023), seed) if kind == "reference"
                  else oracle_instance(seed) if kind == "oracle"
                  else generate(desk_spec(), seed=seed))
        model = compile_model(roster, variant)
        rows, n_c = model.rows[:model.x_rows], roster.num_companies
        ev = MoveEvaluator(model)
        student_rows = [[] for _ in roster.students]
        shared = []
        for r, row in enumerate(rows):
            students = {k // n_c for k in row.cols}
            if len(students) == 1:
                coefs = [0.0] * n_c
                for k, a in zip(row.cols, row.coefs):
                    coefs[k % n_c] += a
                student_rows[students.pop()].append((r, coefs))
            else:
                shared += [(k, r, a) for k, a in zip(row.cols, row.coefs) if a != 0.0]
        assert ev.student_rows == student_rows
        shared.sort()
        columns = [[] for _ in range(roster.num_companies * len(roster.students))]
        for k, r, a in shared:
            columns[k].append((r, a))
        assert [ev._column(k) for k in range(len(columns))] == columns
        by_row = sorted((r, k) for k, r, _ in shared)
        assert sorted((r, k) for r in range(len(rows)) for k in
                      ev.row_cols[ev.row_ptr[r]:ev.row_ptr[r + 1]].tolist()) == by_row
        assert ev.row_ptr.dtype == ev.row_cols.dtype == np.int32
        assert (ev.lo, ev.hi) == (rows.lo.tolist(), rows.hi.tolist())

    def test_equally_seeded_descents_share_one_relocation_order(self):
        roster = generate(desk_spec(), seed=7)
        ev = MoveEvaluator(compile_model(roster, PAIRS))
        order = list(range(ev.n * ev.n_c))
        plain = random.Random(3)
        plain.shuffle(order)
        first, second = random.Random(3), random.Random(3)
        assert ev.relocation_order(first) == order
        assert ev.relocation_order(second) is ev.relocation_order(random.Random(3))
        assert first.getstate() == second.getstate() == plain.getstate()
        assert ev.relocation_order(random.Random(4)) != order

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_a_move_converts_exactly_the_columns_it_reads(self, variant):
        roster = generate(desk_spec(), seed=7)
        ev = MoveEvaluator(compile_model(roster, variant))
        n_c = ev.n_c
        assert ev.columns == [None] * (ev.n * n_c)
        deal = cyclic_deal(roster)
        ev.load([deal[s.id] for s in roster.students])
        assert ev.columns == [None] * (ev.n * n_c)
        read = set()
        for moves in (((0, (ev.asg[0] + 1) % n_c),), ((1, ev.asg[2]), (2, ev.asg[1]))):
            read |= {i * n_c + c for i, dst in moves for c in (ev.asg[i], dst)}
            ev.apply(moves)
            assert {k for k, column in enumerate(ev.columns) if column is not None} == read
        assert len(read) == 6

    @pytest.mark.parametrize("roster", ROSTERS)
    def test_load_sums_each_row_as_the_per_column_loop_did(self, roster):
        kind, seed = roster
        roster = oracle_instance(seed) if kind == "oracle" else generate(desk_spec(), seed=seed)
        rng = random.Random(seed)
        n, n_c = len(roster.students), roster.num_companies
        for variant in ModelVariant:
            ev = MoveEvaluator(compile_model(roster, variant))
            for _ in range(5):
                asg = [rng.randrange(n_c) for _ in range(n)]
                ev.load(asg)
                act = [0.0] * len(ev.lo)
                for i, c in enumerate(asg):
                    for r, a in ev._column(i * n_c + c):
                        act[r] += a
                    for r, coefs in ev.student_rows[i]:
                        act[r] += coefs[c]
                assert list(map(float.hex, ev.act)) == list(map(float.hex, act)), variant


def reference_descend(ev, rng, budget, floor):
    """``descend`` without the rejection memo: every move is tried."""
    n, n_c = ev.n, ev.n_c

    def relocate(k):
        i, dst = divmod(k, n_c)
        return dst != ev.asg[i] and ev.try_moves(((i, dst),))

    def swap(k):
        i, j = divmod(k, n)
        return ev.asg[i] != ev.asg[j] and ev.try_moves(((i, ev.asg[j]), (j, ev.asg[i])))

    order = list(range(n * n_c))
    rng.shuffle(order)
    relocates, swaps = deque(order), None
    for _ in range(budget):
        if ev.violation == 0.0 and ev.objective <= floor + EPS:
            return
        if _take_first(relocates, relocate):
            continue
        if swaps is None:
            order = [i * n + j for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(order)
            swaps = deque(order)
        if not _take_first(swaps, swap):
            return


class TestRejectionMemo:
    """The memo in ``descend`` skips only moves that would be rejected."""

    @staticmethod
    def starts(roster):
        rng = random.Random(len(roster.students))
        yield cyclic_deal(roster)
        yield rotate_within_battalions(roster)
        yield rotate_within_battalions(roster, shift=2)
        yield {s.id: rng.randrange(roster.num_companies) for s in roster.students}

    @staticmethod
    def counted_descent(descent, roster, variant, start, budget):
        ev = MoveEvaluator(compile_model(roster, variant))
        ev.load([start[s.id] for s in roster.students])
        tries = [0]
        real = ev.try_moves

        def counted(moves):
            tries[0] += 1
            return real(moves)

        ev.try_moves = counted
        descent(ev, random.Random(3), budget, objective_floor(roster, variant))
        return ev, tries[0]

    @pytest.mark.parametrize("roster", ROSTERS)
    def test_memo_changes_no_decision(self, roster):
        kind, seed = roster
        roster = oracle_instance(seed) if kind == "oracle" else generate(desk_spec(), seed=seed)
        budget = 10 * len(roster.students) if kind == "oracle" else 200
        for variant in ModelVariant:
            for start in self.starts(roster):
                ev, _ = self.counted_descent(descend, roster, variant, start, budget)
                ref, _ = self.counted_descent(reference_descend, roster, variant, start, budget)
                assert ev.asg == ref.asg
                assert ev.objective == ref.objective
                assert ev.violation == ref.violation

    def test_memo_halves_the_tries(self):
        roster = generate(desk_spec(), seed=7)
        start = rotate_within_battalions(roster)
        ev, tries = self.counted_descent(descend, roster, DEV, start, 200)
        ref, ref_tries = self.counted_descent(reference_descend, roster, DEV, start, 200)
        assert ev.asg == ref.asg
        assert 2 * tries <= ref_tries

    def test_blocking_row_is_one_the_move_breaks(self):
        by_row = by_objective = unread_dev_swaps = 0
        for seed in range(60):
            roster = oracle_instance(seed)
            rng = random.Random(seed)
            n, n_c = len(roster.students), roster.num_companies
            for variant in ModelVariant:
                model = compile_model(roster, variant)
                ev, probe = MoveEvaluator(model), MoveEvaluator(model)
                ev.load([rng.randrange(n_c) for _ in range(n)])
                descend(ev, rng, 10 * n, -math.inf)
                if ev.violation != 0.0:
                    continue
                moves = [((i, c),) for i in range(n) for c in range(n_c) if c != ev.asg[i]]
                moves += [((i, ev.asg[j]), (j, ev.asg[i]))
                          for i in range(n) for j in range(i + 1, n) if ev.asg[i] != ev.asg[j]]
                rng.shuffle(moves)
                for move in moves:
                    probe.load(ev.asg)
                    if ev.try_moves(move):
                        assert ev.blocked is None
                        continue
                    probe.apply(move)
                    r = ev.blocked
                    if r is None:
                        # the objective would not fall; a dev relocation meets
                        # its rows first, so it breaks no row either, while a
                        # dev swap, like any min or pairs move, is rejected on
                        # the objective before its rows are read
                        by_objective += 1
                        assert probe.objective >= ev.objective - EPS
                        if variant is DEV and len(move) == 1:
                            assert probe.bad == 0
                        elif variant is DEV:
                            unread_dev_swaps += probe.bad > 0
                    else:
                        by_row += 1
                        x = probe.act[r]
                        assert max(probe.lo[r] - x, x - probe.hi[r]) > FEAS_TOL
        assert by_row > 0 and by_objective > 0 and unread_dev_swaps > 0
