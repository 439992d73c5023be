"""Exact solver behaviour: oracle equivalence, budgets, and determinism.

The randomized instances are tiny enough to enumerate every possible
assignment, which provides a solver-independent source of truth for both
the optimal objective and infeasibility verdicts.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import statistics

import numpy as np
import pytest

from cohort_shuffle import (
    DecodeError,
    ModelVariant,
    Roster,
    SolveOptions,
    SolveStatus,
    Tolerances,
    acquainted_pairs,
    build_warm_start,
    check_feasible,
    company_members,
    compile_model,
    count_pairs,
    count_same_company,
    cyclic_deal,
    decode_assignment,
    desk_spec,
    generate,
    rotate_within_battalions,
    score_sums,
    solve_ip,
    solve_roster,
    validate_roster,
    weighted_deviation,
)
from cohort_shuffle import branch_bound
from cohort_shuffle.bounds import objective_floor
from cohort_shuffle.branch_bound import _canonical_point, _rows_hold, _Search
from cohort_shuffle.compiler import cohort_cells
from cohort_shuffle.ipmodel import ColumnBuilder, IpModel, RowBuilder, Sense, VarKind
from cohort_shuffle.simplex import NumericalFailure, SimplexEngine
from conftest import balanced_roster, mk_student, oracle_best, oracle_instance

MIN = ModelVariant.MIN_SAME_COMPANY
DEV = ModelVariant.MERIT_DEVIATION
PAIRS = ModelVariant.MIN_PAIRS


@pytest.mark.parametrize("seed", range(60))
def test_matches_exhaustive_enumeration(seed):
    roster = oracle_instance(seed)
    for variant in ModelVariant:
        model = compile_model(roster, variant)
        res = solve_ip(model)
        expected = oracle_best(roster, variant)
        if expected is None:
            assert res.status is SolveStatus.INFEASIBLE, \
                f"seed {seed} {variant.value}: enumeration found nothing feasible"
            assert res.assignment is None and res.objective is None
        else:
            assert res.status is SolveStatus.PROVEN_OPTIMAL, \
                f"seed {seed} {variant.value}: {res.status}"
            assert res.objective == pytest.approx(expected, abs=1e-9)
            assert res.assignment is not None


@pytest.mark.parametrize("seed", range(60))
def test_compact_solve_matches_the_paper_form(seed):
    """``solve_roster`` solves pairs on the compact form; ``solve_ip`` on the
    paper form reaches the same verdict and objective."""
    roster = oracle_instance(seed)
    paper = solve_ip(compile_model(roster, PAIRS))
    compact = solve_roster(roster, PAIRS).result
    assert compact.status is paper.status
    assert compact.objective == paper.objective


def test_compact_tree_proves_the_locked_desk_roster():
    """A desk roster whose locks keep the warm start above the pigeonhole
    floor: the paper form's LP bound is 0, the compact form's rounds to 3,
    and its tree proves 4."""
    spec = dataclasses.replace(desk_spec(6, 5, 2, 1), battalion_locked_fraction=0.4,
                               intl_per_company=1, sapr_per_company=1)
    roster = generate(spec, 50)
    out = solve_roster(roster, PAIRS, SolveOptions(time_limit_s=20.0))
    assert out.result.status is SolveStatus.PROVEN_OPTIMAL
    assert out.result.objective == 4.0
    assert objective_floor(roster, PAIRS) < 4.0
    assert out.certificate.ok


@pytest.mark.parametrize("seed", [1, 3, 5, 8, 9])
def test_failed_node_lps_are_solved_again_in_stable_mode(seed, monkeypatch):
    """Every dual run outside the engine's stable mode fails, so each node
    LP is only solved by the search's stable retry."""
    dual, solve = SimplexEngine._dual, SimplexEngine.solve

    def failing(self, st, max_iter, deadline, stable):
        if not stable:
            raise NumericalFailure("injected")
        return dual(self, st, max_iter, deadline, stable)

    stable_calls = []

    def counting(self, *args, **kwargs):
        stable_calls.append(kwargs.get("stable", False))
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SimplexEngine, "_dual", failing)
    monkeypatch.setattr(SimplexEngine, "solve", counting)
    roster = oracle_instance(seed)
    for variant in ModelVariant:
        stable_calls.clear()
        res = solve_ip(compile_model(roster, variant))
        assert res.status is SolveStatus.PROVEN_OPTIMAL, (variant, res.status)
        assert res.objective == pytest.approx(oracle_best(roster, variant), abs=1e-9)
        assert any(stable_calls)


def ids(roster: Roster) -> list[str]:
    return [s.id for s in roster.students]


@pytest.mark.parametrize("seed", range(60))
def test_compiled_rows_agree_with_the_auditor(seed):
    """The canonical point of a random assignment satisfies every compiled
    row, spread, together and epigraph rows included, exactly when the
    independent auditor passes the assignment; a feasible point's cost is
    then its objective."""
    roster = oracle_instance(seed)
    rng = random.Random(seed)
    n, n_c = len(roster.students), roster.num_companies
    models = [compile_model(roster, variant) for variant in ModelVariant]
    for model in models + [compile_model(roster, PAIRS, form="compact")]:
        variant = model.variant
        for _ in range(40):
            asg = np.array([rng.randrange(n_c) for _ in range(n)], dtype=np.int64)
            point, objective = _canonical_point(model, asg)
            audit = check_feasible(roster, dict(zip(ids(roster), asg.tolist())),
                                   forbid_same_company=variant is not MIN)
            assert _rows_hold(model.rows, point) == audit.feasible, (variant, asg)
            if audit.feasible and variant is not DEV:
                assert point @ model.variables.objective == objective, (variant, asg)


@pytest.mark.parametrize("variant, form", [(PAIRS, "paper"), (DEV, "paper"), (PAIRS, "compact")])
def test_rows_outside_the_x_block_are_checked(variant, form):
    """A feasible canonical point with one extra column moved off its value
    breaks only a together, spread or epigraph row, and the incumbent check
    rejects it: a pair that shares a company with its u zeroed, one spread
    column lowered by 1e-3, or one positive w lowered by 1e-3."""
    roster = generate(desk_spec(), seed=7)
    model = compile_model(roster, variant, form)
    asg = solve_roster(roster, variant, SolveOptions(node_limit=0)).result.assignment
    point, _ = _canonical_point(model, np.array([asg[s] for s in ids(roster)]))
    assert _rows_hold(model.rows, point)
    x_block = len(roster.students) * roster.num_companies
    if variant is PAIRS and form == "paper":
        col = x_block + int(np.flatnonzero(point[x_block:] == 1.0)[0])
        point[col] = 0.0
    elif variant is PAIRS:
        w_block = x_block + len(cohort_cells(roster))
        col = w_block + int(np.flatnonzero(point[w_block:] > 0.0)[0])
        point[col] -= 1e-3
    else:
        col = x_block + int(np.argmax(point[x_block:]))
        point[col] -= 1e-3
    assert _rows_hold(model.rows[:model.x_rows], point)
    assert not _rows_hold(model.rows, point)


# a desk roster whose companies are large enough, and whose task force and
# prior service are common enough, that every window's binding company value
# varies between random assignments
WINDOW_DESK = dataclasses.replace(desk_spec(num_companies=4, company_size=16),
                                  task_force_fraction=0.25, prior_service_fraction=0.25)


def _random_assignments(roster: Roster, seed: str) -> list[dict]:
    rng = random.Random(seed)
    return [{s.id: rng.randrange(roster.num_companies) for s in roster.students}
            for _ in range(40)]


def _company_values(roster: Roster, asg: dict, stem: str, key: str) -> list[float]:
    """Each nonempty company's count, average score or share for one window key."""
    groups = [g for g in company_members(roster, asg) if g]
    if stem == "count":
        return [sum(key == "all" or getattr(s, f"is_{key}") for s in g) for g in groups]
    if stem == "merit":
        return [sum(s.score(key) for s in g) / len(g) for g in groups]
    return [sum(getattr(s, stem) == key for s in g) / len(g) for g in groups]


def _verdicts(roster: Roster, assignments: list[dict]) -> list[bool]:
    """Whether each assignment passes, asserting that the compiled rows and
    the auditor agree on it."""
    model = compile_model(roster, MIN)
    out = []
    for asg in assignments:
        point, _ = _canonical_point(model, np.array([asg[s] for s in ids(roster)]))
        audit = check_feasible(roster, asg).feasible
        assert _rows_hold(model.rows, point) == audit, asg
        out.append(audit)
    return out


def _median_bound(roster, assignments, stem, key, side):
    """The median over the assignments of the binding company value: the
    lowest for a min, the highest for a max."""
    extreme = min if side == "min" else max
    return statistics.median_low(extreme(_company_values(roster, asg, stem, key))
                                 for asg in assignments)


@pytest.mark.parametrize("stem, key, side", [
    (stem, key, side)
    for stem, keys in (("count", ("all", "task_force", "prior_service")),
                       ("merit", ("aom", "mom", "prt")), ("gender", ("male", "female")),
                       ("race", ("white", "other")))
    for key in keys for side in ("min", "max")])
def test_every_window_key_and_side_agrees_with_the_auditor(stem, key, side):
    """A desk roster whose only constraint is one window, bounded at the
    median binding company value: the compiled rows pass each random
    assignment's canonical point exactly when the auditor passes it."""
    base = dataclasses.replace(generate(WINDOW_DESK, seed=3), conflict_pairs=())
    assignments = _random_assignments(base, f"{stem}_{side}_{key}")
    bound = _median_bound(base, assignments, stem, key, side)
    roster = dataclasses.replace(base, tolerances=Tolerances(**{f"{stem}_{side}": {key: bound}}))
    assert set(_verdicts(roster, assignments)) == {True, False}


@pytest.mark.parametrize("stem, key", [("gender", "female"), ("race", "white")])
@pytest.mark.parametrize("side", ["min", "max"])
@pytest.mark.parametrize("bound", [0.0, 1.0])
def test_share_bounds_of_zero_and_one_agree_with_the_auditor(stem, key, side, bound):
    """A share window at exactly 0 or 1, beside a head-count window at the
    median largest company, still compiles to rows the auditor agrees with."""
    base = dataclasses.replace(generate(WINDOW_DESK, seed=5), conflict_pairs=())
    assignments = _random_assignments(base, f"{stem}_{side}_{bound}")
    size_cap = _median_bound(base, assignments, "count", "all", "max")
    roster = dataclasses.replace(base, tolerances=Tolerances(
        count_max={"all": size_cap}, **{f"{stem}_{side}": {key: bound}}))
    verdicts = _verdicts(roster, assignments)
    # min 0 and max 1 never bind; max 0 and min 1 fail every company with
    # members of both kinds
    assert set(verdicts) == ({True, False} if (side == "min") == (bound == 0.0) else {False})


def test_decoded_assignment_round_trips():
    roster = oracle_instance(3)
    model = compile_model(roster, MIN)
    res = solve_ip(model)
    assert res.primal is not None
    assert decode_assignment(model, res.primal) == res.assignment


def test_primal_is_a_read_only_float64_array():
    res = solve_ip(compile_model(oracle_instance(3), MIN))
    assert res.primal.dtype == np.float64 and not res.primal.flags.writeable
    with pytest.raises(ValueError):
        res.primal[0] = 2.0


class TestDecodeErrors:
    def test_all_zero_block(self, tiny_roster):
        model = compile_model(tiny_roster, MIN)
        with pytest.raises(DecodeError):
            decode_assignment(model, np.zeros(model.num_vars))

    def test_fractional_block(self, tiny_roster):
        model = compile_model(tiny_roster, MIN)
        x = np.zeros(model.num_vars)
        x[0] = 1.0
        x[1] = 0.5
        with pytest.raises(DecodeError):
            decode_assignment(model, x)

    def test_model_without_metadata(self):
        columns = ColumnBuilder()
        columns.add("x", ((),), ((),), VarKind.BINARY, 0.0, 1.0, 1.0)
        bare = IpModel(MIN, columns.build(), RowBuilder().build())
        with pytest.raises(DecodeError):
            decode_assignment(bare, np.ones(1))


class TestWarmStartsAndBounds:
    def test_matching_external_bound_skips_search(self):
        roster = balanced_roster(3, 3)  # 3 companies of 3: pigeonhole forces 1 pair each
        warm = cyclic_deal(roster)
        res = solve_ip(compile_model(roster, PAIRS),
                       SolveOptions(warm_start=warm))
        assert res.status is SolveStatus.PROVEN_OPTIMAL
        assert res.objective == 3.0
        assert res.stats.nodes == 0

    def test_zero_objective_warm_start_skips_search(self, tiny_roster):
        warm = cyclic_deal(tiny_roster)
        assert count_same_company(tiny_roster, warm) == 0
        res = solve_ip(compile_model(tiny_roster, MIN), SolveOptions(warm_start=warm))
        assert res.status is SolveStatus.PROVEN_OPTIMAL
        assert res.objective == 0.0
        assert res.stats.nodes == 0

    def test_infeasible_warm_start_is_ignored(self):
        students = (mk_student(0, 0), mk_student(1, 1))
        r = Roster(students=students, num_companies=2, battalions=((0, 1),),
                   tolerances=Tolerances(count_max={"all": 1}))
        bad_warm = {"s00": 0, "s01": 0}
        res = solve_ip(compile_model(r, MIN), SolveOptions(warm_start=bad_warm))
        assert res.status is SolveStatus.PROVEN_OPTIMAL
        assert res.objective == 0.0  # swapping the two students is feasible
        assert res.assignment == {"s00": 1, "s01": 0}

    @pytest.mark.parametrize("variant", list(ModelVariant))
    @pytest.mark.parametrize("fault", ["missing", "last->|C|", "first->-1"])
    def test_malformed_warm_start_is_rejected(self, variant, fault):
        """A warm start that leaves out a student or names a company outside
        [0, |C|) is an error naming the student, whatever the variant."""
        roster = generate(desk_spec(), seed=7)
        first, last = roster.students[0].id, roster.students[-1].id
        warm = dict(build_warm_start(roster, variant))
        if fault == "missing":
            del warm[last]
        else:
            warm[last if fault == "last->|C|" else first] = (
                roster.num_companies if fault == "last->|C|" else -1)
        named = first if fault == "first->-1" else last
        with pytest.raises(ValueError, match=f"student {named!r}"):
            solve_ip(compile_model(roster, variant), SolveOptions(warm_start=warm, node_limit=0))

    def test_incumbent_at_the_floor_ends_the_dive(self):
        roster = balanced_roster(4, 4)
        warm = rotate_within_battalions(roster)
        assert count_pairs(roster, warm) == 24
        res = solve_ip(compile_model(roster, PAIRS),
                       SolveOptions(warm_start=warm, node_limit=50))
        assert res.status is SolveStatus.PROVEN_OPTIMAL
        assert res.objective == 4.0
        assert res.stats.nodes == 1  # the root repair reaches the floor

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (6, 14)])
    def test_deal_at_the_roster_floor_is_proved_without_a_node(self, shape):
        """The cyclic deal meets the pairs floor of a balanced roster, which
        solve_ip reads off the model's roster: no node, no LP."""
        roster = balanced_roster(*shape)
        floor = objective_floor(roster, PAIRS)
        res = solve_ip(compile_model(roster, PAIRS),
                       SolveOptions(warm_start=cyclic_deal(roster), node_limit=200))
        assert res.status is SolveStatus.PROVEN_OPTIMAL
        assert res.objective == res.bound == floor
        assert res.gap == 0.0
        assert res.stats.nodes == res.stats.lp_iterations == 0

    def test_negative_weight_is_rejected(self):
        """A negative weight makes dev costs negative, so the floor of 0 would
        not hold: the model is refused, as validate_roster refuses the roster."""
        roster = dataclasses.replace(generate(desk_spec(), seed=7), aom_weight=-2.0,
                                     mom_weight=3.0)
        assert {v.code for v in validate_roster(roster)} == {"bad_weights"}
        with pytest.raises(ValueError, match="negative cost"):
            solve_ip(compile_model(roster, DEV), SolveOptions(node_limit=0))


class TestBudgets:
    def test_node_limit_reports_gap(self, tiny_roster):
        warm = {s.id: s.old_company for s in tiny_roster.students}
        res = solve_ip(compile_model(tiny_roster, MIN),
                       SolveOptions(warm_start=warm, node_limit=0))
        assert res.status is SolveStatus.FEASIBLE_GAP
        assert res.objective == 6.0
        assert res.stats.nodes == 0
        assert res.bound <= res.objective

    def test_time_limit_without_incumbent(self, tiny_roster):
        res = solve_ip(compile_model(tiny_roster, DEV),
                       SolveOptions(time_limit_s=0.0))
        assert res.status is SolveStatus.TIME_LIMIT_NO_SOLUTION
        assert res.assignment is None

    def test_lp_stopped_by_the_deadline_returns_the_incumbent(self, tiny_roster, monkeypatch):
        """A deadline already past when the root LP starts: the LP stops at
        once, its node goes back on the heap under the floor, and the warm
        start comes back with that bound."""
        warm = cyclic_deal(tiny_roster)
        checks = iter([False])  # let the search loop pop the root once
        monkeypatch.setattr(_Search, "_out_of_budget", lambda self: next(checks, True))
        res = solve_ip(compile_model(tiny_roster, DEV),
                       SolveOptions(warm_start=warm, time_limit_s=-1.0))
        assert res.status is SolveStatus.FEASIBLE_GAP
        assert res.objective == weighted_deviation(tiny_roster, warm)
        assert res.bound == 0.0
        assert res.stats.nodes == 0
        assert res.stats.lp_iterations == 0

    def test_infeasible_instance(self):
        # locked into a single-company battalion while forbidden to stay
        students = (mk_student(0, 0, battalion_locked=True), mk_student(1, 1))
        r = Roster(students=students, num_companies=2, battalions=((0,), (1,)))
        res = solve_ip(compile_model(r, DEV))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.gap is None


class TestCanonicalObjectives:
    def test_dev_objective_equals_evaluator_exactly(self):
        roster = oracle_instance(9)
        res = solve_ip(compile_model(roster, DEV))
        assert res.status is SolveStatus.PROVEN_OPTIMAL
        assert res.objective == weighted_deviation(roster, res.assignment)

    def test_dev_spread_columns_carry_score_sum_gaps(self):
        roster = oracle_instance(9)
        model = compile_model(roster, DEV)
        res = solve_ip(model)
        n, n_c = len(roster.students), roster.num_companies
        aom = score_sums(roster, res.assignment, "aom")
        mom = score_sums(roster, res.assignment, "mom")
        pairs = [(c, c2) for c in range(n_c) for c2 in range(n_c) if c2 != c]
        y_base = n * n_c
        z_base = y_base + len(pairs)
        for p, (c, c2) in enumerate(pairs):
            assert res.primal[y_base + p] == pytest.approx(abs(aom[c] - aom[c2]), abs=1e-9)
            assert res.primal[z_base + p] == pytest.approx(abs(mom[c] - mom[c2]), abs=1e-9)

    def test_a_solve_lists_the_acquainted_pairs_once(self, monkeypatch):
        """A pairs solve from the worst feasible assignment offers that start
        and the root repair's end point as incumbents, and lists the
        roster's acquainted pairs for them once."""
        roster = oracle_instance(9)
        every = (dict(zip(ids(roster), combo)) for combo in
                 itertools.product(range(roster.num_companies), repeat=len(roster.students)))
        worst = max((asg for asg in every
                     if check_feasible(roster, asg, forbid_same_company=True).feasible),
                    key=lambda asg: count_pairs(roster, asg))
        listed, offered = [], []
        try_incumbent = _Search._try_incumbent
        monkeypatch.setattr(branch_bound, "acquainted_pairs",
                            lambda r: listed.append(r) or acquainted_pairs(r))
        monkeypatch.setattr(_Search, "_try_incumbent",
                            lambda self, asg: offered.append(asg) or try_incumbent(self, asg))
        res = solve_ip(compile_model(roster, PAIRS), SolveOptions(warm_start=worst))
        assert res.objective == oracle_best(roster, PAIRS) < count_pairs(roster, worst)
        assert len(offered) >= 2 and len(listed) <= 1

    def test_model_without_roster_metadata_rejected(self):
        # min -x0 - x1 subject to x0 + x1 <= 1 over binaries, compiled from no roster
        columns, rows = ColumnBuilder(), RowBuilder()
        columns.add("x", [(0,), (1,)], ((),), VarKind.BINARY, 0.0, 1.0, -1.0)
        rows.add([("cap", Sense.LE, 1.0)], ((),), ((),), np.arange(2), 1.0)
        with pytest.raises(ValueError, match="carries no roster"):
            solve_ip(IpModel(MIN, columns.build(), rows.build()))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            solve_ip(IpModel(MIN, ColumnBuilder().build(), RowBuilder().build()))


class TestEngineOnFirstUse:
    """The LP engine is built at the first node LP, never before."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls, build = [], branch_bound.standard_form

        def counting(model):
            calls.append(model)
            return build(model)

        monkeypatch.setattr(branch_bound, "standard_form", counting)
        return calls

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def refuse(model):
            raise AssertionError("standard form built")

        monkeypatch.setattr(branch_bound, "standard_form", refuse)

    def test_warm_start_at_the_floor_builds_no_engine(self, no_engine):
        res = solve_roster(generate(desk_spec(), seed=7), PAIRS).result
        assert res.status is SolveStatus.PROVEN_OPTIMAL
        assert (res.objective, res.stats.nodes) == (8.0, 0)

    def test_node_budget_zero_builds_no_engine(self, no_engine):
        res = solve_roster(generate(desk_spec(), seed=7), DEV,
                           SolveOptions(node_limit=0)).result
        assert res.status is SolveStatus.FEASIBLE_GAP
        assert res.stats.lp_iterations == 0

    def test_tree_search_builds_the_engine_once(self, builds):
        res = solve_roster(generate(desk_spec(), seed=7), DEV,
                           SolveOptions(node_limit=2)).result
        assert res.stats.nodes == 2
        assert len(builds) == 1


class TestDeterminismAndWorkers:
    def test_single_worker_runs_are_identical(self):
        roster = oracle_instance(17)
        model = compile_model(roster, DEV)
        a = solve_ip(model, SolveOptions(seed=0))
        b = solve_ip(model, SolveOptions(seed=0))
        assert a.status is b.status
        assert a.objective == b.objective
        assert a.bound == b.bound
        assert a.assignment == b.assignment
        assert np.array_equal(a.primal, b.primal)
        assert (a.stats.nodes, a.stats.lp_iterations) == (b.stats.nodes, b.stats.lp_iterations)

    @pytest.mark.parametrize("seed", [2, 9, 23])
    def test_two_workers_agree_on_objective_and_status(self, seed):
        roster = oracle_instance(seed)
        for variant in ModelVariant:
            model = compile_model(roster, variant)
            one = solve_ip(model, SolveOptions(workers=1))
            two = solve_ip(model, SolveOptions(workers=2))
            assert one.status is two.status
            if one.objective is None:
                assert two.objective is None
            else:
                assert two.objective == pytest.approx(one.objective, abs=1e-9)
