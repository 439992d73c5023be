"""LP engine checks against an independent solver and hand-built cases.

The engine solves LPs whose slack start is dual feasible: every column
has a finite bound its cost prefers, as every compiled model's columns
do, and an LP outside that class raises ValueError.  Random models in the
class are cross-checked against scipy's HiGHS frontend: statuses must
agree, optimal objectives must match to 1e-6, and the returned point must
satisfy every row.  Duals follow the change-in-objective-per-
unit-rhs convention, verified on fixed instances where the dual vector
is unique.  Warm re-solves from a parent's optimal basis after one bound
fix are checked against HiGHS the same way, infeasible children included.
"""

from __future__ import annotations

import hashlib
import random
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from cohort_shuffle import (
    LpSolution,
    LpStatus,
    ModelVariant,
    balanced_spec,
    compile_model,
    desk_spec,
    generate,
    solve_lp,
    standard_form,
)
from cohort_shuffle.ipmodel import IpModel, LinearRow, Sense, VarKind, Variable
from cohort_shuffle.simplex import (BASIC, PIVOT_EPS, SMALL_PIVOT, Basis, NumericalFailure,
                                   SimplexEngine)
from conftest import oracle_instance

INF = float("inf")


def lp_model(costs, bounds, rows):
    """Continuous model from plain tuples: rows are (coefs, sense, rhs)."""
    variables = tuple(Variable(f"v{j}", VarKind.CONTINUOUS, lo, hi, c)
                      for j, (c, (lo, hi)) in enumerate(zip(costs, bounds)))
    built = tuple(LinearRow(f"r{i}", (), tuple(range(len(costs))), tuple(coefs), sense, rhs)
                  for i, (coefs, sense, rhs) in enumerate(rows))
    return IpModel(ModelVariant.MIN_SAME_COMPANY, variables, built)


def scipy_solve(costs, bounds, rows):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coefs, sense, rhs in rows:
        if sense is Sense.LE:
            a_ub.append(list(coefs)); b_ub.append(rhs)
        elif sense is Sense.GE:
            a_ub.append([-v for v in coefs]); b_ub.append(-rhs)
        else:
            a_eq.append(list(coefs)); b_eq.append(rhs)
    return linprog(c=list(costs), A_ub=a_ub or None, b_ub=b_ub or None,
                   A_eq=a_eq or None, b_eq=b_eq or None,
                   bounds=[(lo if lo > -INF else None, hi if hi < INF else None)
                           for lo, hi in bounds],
                   method="highs")


class TestHandBuiltCases:
    def test_mixed_senses_with_unique_dual(self):
        rows = [((1.0, 1.0), Sense.LE, 3.0),
                ((1.0, -1.0), Sense.GE, -1.0),
                ((1.0, 2.0), Sense.EQ, 4.0)]
        sol = solve_lp(lp_model((-1.0, -2.0), [(0.0, 2.0)] * 2, rows))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-4.0)
        # the primal optimum is not unique: the segment from (2/3, 5/3) to
        # (2, 1) lies at -4, and the dual simplex ends at its second end
        assert sol.values == pytest.approx((2.0, 1.0))
        assert sol.duals == pytest.approx((0.0, 0.0, -1.0), abs=1e-9)

    def test_binding_rows_duals_are_rhs_sensitivities(self):
        rows = [((1.0, 1.0), Sense.GE, 4.0), ((1.0, -1.0), Sense.LE, 1.0)]
        sol = solve_lp(lp_model((2.0, 3.0), [(0.0, 10.0)] * 2, rows))
        assert sol.objective == pytest.approx(9.5)
        assert sol.values == pytest.approx((2.5, 1.5))
        assert sol.duals == pytest.approx((2.5, -0.5))

    def test_duals_survive_badly_scaled_rows(self):
        # same geometry as above but the GE row multiplied by 500
        rows = [((500.0, 500.0), Sense.GE, 2000.0), ((1.0, -1.0), Sense.LE, 1.0)]
        sol = solve_lp(lp_model((2.0, 3.0), [(0.0, 10.0)] * 2, rows))
        assert sol.objective == pytest.approx(9.5)
        assert sol.duals == pytest.approx((2.5 / 500.0, -0.5))

    def test_infeasible_row(self):
        sol = solve_lp(lp_model((1.0,), [(0.0, 1.0)], [((1.0,), Sense.GE, 2.0)]))
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.objective is None and sol.values is None

    def test_boxed_only_picks_cheapest_bounds(self):
        sol = solve_lp(lp_model((1.0, -2.0, 0.0),
                                [(1.0, 4.0), (0.0, 3.0), (-1.0, 5.0)], []))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values == pytest.approx((1.0, 3.0, -1.0))
        assert sol.objective == pytest.approx(1.0 - 6.0)

    def test_equality_fixing_variable(self):
        sol = solve_lp(lp_model((0.0, 1.0), [(0.0, 9.0)] * 2,
                                [((1.0, 0.0), Sense.EQ, 7.0),
                                 ((1.0, 1.0), Sense.GE, 8.0)]))
        assert sol.values == pytest.approx((7.0, 1.0))

    def test_iteration_limit_status(self):
        rows = [((1.0, 1.0), Sense.GE, 4.0), ((1.0, -1.0), Sense.LE, 1.0)]
        sol = solve_lp(lp_model((2.0, 3.0), [(0.0, 10.0)] * 2, rows), max_iter=1)
        assert sol.status is LpStatus.ITERATION_LIMIT

    def test_engine_and_solve_lp_return_one_result(self):
        """Both return an ``LpSolution``: float64 arrays at an optimum, and
        only the status and the iterations when a solve stops."""
        rows = [((1.0, 1.0), Sense.GE, 4.0), ((1.0, -1.0), Sense.LE, 1.0)]
        model = lp_model((2.0, 3.0), [(0.0, 10.0)] * 2, rows)
        raw, sol = standard_form(model).solve(), solve_lp(model)
        assert type(raw) is type(sol) is LpSolution
        assert sol.values.dtype == sol.duals.dtype == np.float64
        assert np.array_equal(raw.values, sol.values) and np.array_equal(raw.duals, sol.duals)
        assert sol.basis is not None
        stopped = solve_lp(model, max_iter=1)
        assert (stopped.values, stopped.duals, stopped.objective, stopped.basis) == (None,) * 4

    def test_model_without_variables_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(IpModel(ModelVariant.MIN_SAME_COMPANY, (), ()))

    def test_column_bounded_above_with_negative_cost(self):
        """(-inf, 5] costed -1 rests on its upper bound, so the slack start
        is dual feasible; the row then pulls the column down to 3."""
        costs, bounds = (-1.0, 2.0), [(-INF, 5.0), (0.0, 3.0)]
        rows = [((1.0, -1.0), Sense.LE, 3.0)]
        sol = solve_lp(lp_model(costs, bounds, rows))
        assert_matches(sol, scipy_solve(costs, bounds, rows))
        assert sol.values == pytest.approx((3.0, 0.0))


#: LPs with a column whose preferred bound is infinite, so no slack start
#: is dual feasible: the cost, bounds and rows of each
OUTSIDE_THE_CLASS = {
    "lower-bounded-costed-minus-1": ((-1.0,), [(0.0, INF)], []),
    "lower-bounded-costed-minus-1-with-row": ((-1.0, 0.0), [(0.0, INF), (0.0, INF)],
                                              [((1.0, -1.0), Sense.LE, 0.0)]),
    "lower-bounded-costed-minus-1-feasible": ((-1.0, 2.0), [(0.0, INF), (0.0, 3.0)],
                                              [((1.0, 1.0), Sense.LE, 4.0),
                                               ((1.0, -1.0), Sense.GE, -1.0)]),
    "lower-bounded-costed-minus-1-infeasible": ((-1.0, 0.0), [(0.0, INF), (0.0, INF)],
                                                [((0.0, 1.0), Sense.LE, -1.0)]),
    "lower-bounded-both-costed-negative": ((-1.0, -2.0), [(0.0, INF), (0.0, INF)],
                                           [((1.0, 1.0), Sense.LE, 4.0),
                                            ((1.0, -1.0), Sense.GE, -1.0)]),
    "upper-bounded-costed-plus-1": ((1.0,), [(-INF, 5.0)], []),
    "free-costed-0": ((0.0,), [(-INF, INF)], [((1.0,), Sense.GE, -5.0)]),
    "free-costed-1": ((1.0,), [(-INF, INF)], [((1.0,), Sense.GE, -5.0)]),
    "free-costed-1-without-rows": ((1.0,), [(-INF, INF)], []),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_THE_CLASS))
def test_lp_outside_the_class_is_rejected(case):
    """``solve_lp`` raises ValueError stating the rule, and no mode of the
    engine solves the LP either: a stable solve past its deadline raises
    too, before any iteration."""
    model = lp_model(*OUTSIDE_THE_CLASS[case])
    with pytest.raises(ValueError, match="finite bound its cost prefers"):
        solve_lp(model)
    with pytest.raises(ValueError, match="finite bound its cost prefers"):
        standard_form(model).solve(stable=True, deadline=time.monotonic() - 1.0)


def random_lp(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = rng.randint(0, 5)
    costs = tuple(float(rng.randint(-5, 5)) for _ in range(n))
    bounds = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.6:
            lo = float(rng.randint(0, 2))
            bounds.append((lo, lo + rng.randint(0, 8)))
        elif kind < 0.8:
            bounds.append((0.0, INF))
        else:
            bounds.append((-INF, INF))
    rows = []
    for _ in range(m):
        coefs = tuple(float(rng.randint(-4, 4)) for _ in range(n))
        sense = rng.choice((Sense.LE, Sense.GE, Sense.EQ))
        rows.append((coefs, sense, float(rng.randint(-10, 10))))
    return costs, bounds, rows


def in_class(costs, bounds) -> bool:
    """Whether every column has a finite bound its cost prefers: the lower
    for a positive cost, the upper for a negative one, either for cost 0."""
    return all((c <= 0 or lo > -INF) and (c >= 0 or hi < INF) and (lo > -INF or hi < INF)
               for c, (lo, hi) in zip(costs, bounds))


#: the first 144 random LPs split by class; 60 of them are in it
SEEDS = range(144)
IN_CLASS = [seed for seed in SEEDS if in_class(*random_lp(seed)[:2])]
OUTSIDE = [seed for seed in SEEDS if seed not in IN_CLASS]


@pytest.mark.parametrize("seed", OUTSIDE)
def test_random_lps_outside_the_class_are_rejected(seed):
    with pytest.raises(ValueError, match="finite bound its cost prefers"):
        solve_lp(lp_model(*random_lp(seed)))


def test_random_lps_in_the_class_cover_both_outcomes():
    """The HiGHS comparisons below cover at least 60 random LPs and at least
    60 bound-fixed children, each set with optimal and infeasible ones."""
    roots, children = [], []
    for seed in IN_CLASS:
        costs, bounds, rows = random_lp(seed)
        roots.append(scipy_solve(costs, bounds, rows).status)
        parent = solve_lp(lp_model(costs, bounds, rows))
        if parent.status is LpStatus.OPTIMAL:
            for col, bound in fixed_children(parent):
                child_bounds = list(bounds)
                child_bounds[col] = (bound, bound)
                children.append(scipy_solve(costs, child_bounds, rows).status)
    for statuses in (roots, children):
        assert len(statuses) >= 60 and set(statuses) == {0, 2}


@pytest.mark.parametrize("seed", IN_CLASS)
def test_random_lps_match_reference_solver(seed):
    costs, bounds, rows = random_lp(seed)
    sol = solve_lp(lp_model(costs, bounds, rows))
    ref = scipy_solve(costs, bounds, rows)
    if ref.status == 2:
        assert sol.status is LpStatus.INFEASIBLE
        return
    assert ref.status == 0, f"reference solver returned status {ref.status}"
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-7)

    x = np.array(sol.values)
    for (coefs, sense, rhs), dual in zip(rows, sol.duals):
        lhs = float(np.dot(coefs, x))
        if sense is Sense.LE:
            assert lhs <= rhs + 1e-6
            slack = rhs - lhs
        elif sense is Sense.GE:
            assert lhs >= rhs - 1e-6
            slack = lhs - rhs
        else:
            assert lhs == pytest.approx(rhs, abs=1e-6)
            slack = 0.0
        # a row with genuine slack cannot carry a nonzero dual
        if slack > 1e-5:
            assert abs(dual) <= 1e-6
    for v, (lo, hi) in zip(x, bounds):
        assert lo - 1e-9 <= v <= hi + 1e-9


class TestEngineModes:
    def test_stable_mode_reaches_the_same_objective(self):
        costs, bounds, rows = random_lp(7)
        model = lp_model(costs, bounds, rows)
        plain = standard_form(model).solve()
        stable = standard_form(model).solve(stable=True)
        assert plain.status is stable.status
        if plain.status is LpStatus.OPTIMAL:
            assert stable.objective == pytest.approx(plain.objective, abs=1e-8)

    def test_repeat_solve_is_deterministic(self, tiny_roster):
        model = compile_model(tiny_roster, ModelVariant.MERIT_DEVIATION)
        a = solve_lp(model)
        b = solve_lp(model)
        assert (a.status, a.objective, a.iterations) == (b.status, b.objective, b.iterations)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.duals, b.duals)

    def test_relaxation_of_binary_model_solves(self, tiny_roster):
        model = compile_model(tiny_roster, ModelVariant.MIN_SAME_COMPANY)
        sol = solve_lp(model)
        assert sol.status is LpStatus.OPTIMAL
        # the relaxation can always scatter everyone, so nobody has to stay
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert len(sol.duals) == model.num_rows


class TestStandardForm:
    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_matches_a_row_by_row_reference(self, tiny_roster, variant):
        """The vectorized form equals one built row by row from the
        ``LinearRow`` view, bit for bit."""
        model = compile_model(tiny_roster, variant)
        engine = standard_form(model)
        dense = np.zeros((model.num_rows, model.num_vars))
        scale, slack = [], []
        for i, row in enumerate(model.rows):
            mx = max((abs(a) for a in row.coefs), default=0.0)
            scale.append(1.0 / mx if mx > 0.0 else 1.0)
            dense[i, list(row.cols)] = [a * scale[-1] for a in row.coefs]
            slack.append({Sense.LE: (0.0, INF), Sense.GE: (-INF, 0.0), Sense.EQ: (0.0, 0.0)}[row.sense])
        assert engine.row_scale.tolist() == scale
        assert np.array_equal(engine.a_csc.toarray(), dense)
        assert engine.b.tolist() == [row.rhs * s for row, s in zip(model.rows, scale)]
        assert list(zip(engine.slack_lo.tolist(), engine.slack_hi.tolist())) == slack


def engine_linprog(engine, lower, upper):
    """HiGHS on an engine's computational form under the given bounds."""
    a = engine.a_csc.tocsr()
    eq = engine.slack_lo == engine.slack_hi
    le = ~eq & (engine.slack_lo == 0.0)
    ge = ~eq & ~le
    return linprog(engine.c, A_ub=sparse.vstack([a[le], -a[ge]]),
                   b_ub=np.concatenate([engine.b[le], -engine.b[ge]]),
                   A_eq=a[eq], b_eq=engine.b[eq],
                   bounds=np.column_stack([lower, upper]), method="highs")


def assert_matches(raw, ref):
    if ref.status == 2:
        assert raw.status is LpStatus.INFEASIBLE
        return
    assert ref.status == 0, f"reference solver returned status {ref.status}"
    assert raw.status is LpStatus.OPTIMAL
    assert raw.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-7)


def fixed(engine, col, value):
    lower, upper = engine.default_lower.copy(), engine.default_upper.copy()
    lower[col] = upper[col] = value
    return lower, upper


def fixed_children(parent):
    """Each column with the floor and the ceiling of its optimal LP value
    as the value it is fixed at."""
    return [(col, bound) for col, value in enumerate(parent.values)
            for bound in sorted({np.floor(round(value, 9)), np.ceil(round(value, 9))})]


@pytest.fixture
def dual_runs(monkeypatch):
    """Status of every dual simplex run, in order."""
    runs = []
    original = SimplexEngine._dual

    def recorded(self, st, *args):
        runs.append(original(self, st, *args))
        return runs[-1]

    monkeypatch.setattr(SimplexEngine, "_dual", recorded)
    return runs


@pytest.fixture(scope="module")
def desk_dev_root():
    """Desk seed 7 ``dev``: the engine, its root LP and its first branching column."""
    model = compile_model(generate(desk_spec(), seed=7), ModelVariant.MERIT_DEVIATION)
    engine = standard_form(model)
    root = engine.solve()
    binary = np.array(model.binary_columns())
    xb = root.values[binary]
    frac = np.flatnonzero(np.abs(xb - np.round(xb)) > 1e-6)
    col = int(binary[frac[np.argmin(np.abs(xb[frac] - 0.5))]])
    return engine, root, col


class TestWarmStarts:
    @pytest.mark.parametrize("seed", IN_CLASS)
    def test_bound_fixed_children_match_reference_solver(self, seed, dual_runs):
        """Every column fixed at the floor and at the ceiling of its LP value,
        re-solved from the parent's basis; infeasible children included.  A
        warm child is solved by one dual run."""
        costs, bounds, rows = random_lp(seed)
        engine = standard_form(lp_model(costs, bounds, rows))
        parent = engine.solve()
        if parent.status is not LpStatus.OPTIMAL:
            return
        for col, bound in fixed_children(parent):
            dual_runs.clear()
            child = engine.solve(*fixed(engine, col, bound), start=parent.basis)
            child_bounds = list(bounds)
            child_bounds[col] = (bound, bound)
            assert_matches(child, scipy_solve(costs, child_bounds, rows))
            assert dual_runs == [child.status]

    def test_desk_dev_root_and_first_children_match_reference_solver(self, desk_dev_root,
                                                                      dual_runs):
        engine, root, col = desk_dev_root
        assert root.basis is not None
        assert_matches(root, engine_linprog(engine, engine.default_lower, engine.default_upper))
        for value in (0.0, 1.0):
            child = engine.solve(*fixed(engine, col, value), start=root.basis)
            assert_matches(child, engine_linprog(engine, *fixed(engine, col, value)))
        assert dual_runs == [LpStatus.OPTIMAL] * 2

    def test_child_lp_reuses_the_parent_basis(self, desk_dev_root):
        engine, root, col = desk_dev_root
        for value in (0.0, 1.0):
            bounds = fixed(engine, col, value)
            warm = engine.solve(*bounds, start=root.basis)
            cold = engine.solve(*bounds)
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.iterations < cold.iterations / 4

    @pytest.mark.parametrize("seed", range(20))
    def test_dense_root_is_solved_by_the_dual_alone(self, seed, dual_runs):
        """Nonnegative costs over a feasible dense system: one dual run from
        the slack basis reaches the optimum."""
        rng = random.Random(seed)
        n, m = 30, 20
        costs = tuple(float(rng.randint(0, 9)) for _ in range(n))
        bounds = [(0.0, float(rng.randint(1, 4))) for _ in range(n)]
        point = [rng.uniform(lo, hi) for lo, hi in bounds]
        rows = []
        for _ in range(m):
            coefs = tuple(float(rng.randint(-2, 5)) for _ in range(n))
            sense = rng.choice((Sense.LE, Sense.GE, Sense.EQ))
            lhs = float(np.dot(coefs, point))
            rows.append((coefs, sense, lhs + {Sense.LE: 2.0, Sense.GE: -2.0, Sense.EQ: 0.0}[sense]))
        raw = standard_form(lp_model(costs, bounds, rows)).solve()
        assert_matches(raw, scipy_solve(costs, bounds, rows))
        assert dual_runs == [LpStatus.OPTIMAL]

    @pytest.mark.parametrize("failure", ["stall", "numeric"])
    def test_failed_dual_returns_its_status(self, monkeypatch, failure):
        """A failed dual run ends the solve with its status and iterations;
        the search's stable retry then solves the node LP again."""
        def failed(self, st, *args):
            st.iterations += 5
            if failure == "numeric":
                raise NumericalFailure("injected")
            return LpStatus.ITERATION_LIMIT

        costs, bounds = (2.0, 3.0), [(0.0, 10.0)] * 2
        rows = [((1.0, 1.0), Sense.GE, 4.0), ((1.0, -1.0), Sense.LE, 1.0)]
        monkeypatch.setattr(SimplexEngine, "_dual", failed)
        raw = standard_form(lp_model(costs, bounds, rows)).solve()
        assert raw.status is {"stall": LpStatus.ITERATION_LIMIT,
                              "numeric": LpStatus.NUMERIC_FAILURE}[failure]
        assert raw.iterations == 5  # the dual's iterations count toward the solve

    def test_child_whose_candidates_just_repair_the_row_is_feasible(self):
        """``random_lp(456)`` with the free column 1 fixed at -1, from its
        root's optimal basis.  Moving every ratio-test candidate repairs the
        leaving row exactly, so rounding may leave the last slope a hair
        above 0; the child is still optimal at -1, not infeasible."""
        costs = (2.0, 1.0, 1.0, 5.0, -5.0, 4.0)
        bounds = [(0.0, INF), (-INF, INF), (0.0, 5.0), (0.0, 1.0), (1.0, 1.0), (0.0, 3.0)]
        rows = [((-2.0, 2.0, 4.0, 4.0, 4.0, 3.0), Sense.GE, -8.0),
                ((4.0, -4.0, 1.0, 0.0, 2.0, -1.0), Sense.GE, -6.0),
                ((-1.0, 3.0, -2.0, 1.0, 1.0, -4.0), Sense.GE, -1.0)]
        engine = standard_form(lp_model(costs, bounds, rows))
        root = Basis(np.array([6, 7, 1]), np.array([0, 2, 0, 0, 0, 0, 2, 2, 1], dtype=np.int8))
        assert engine.solve(start=root).objective == pytest.approx(-17 / 3)
        child = engine.solve(*fixed(engine, 1, -1.0), start=root)
        assert child.status is LpStatus.OPTIMAL
        assert child.objective == pytest.approx(-1.0)
        assert child.values == pytest.approx((0.0, -1.0, 0.0, 1.0, 1.0, 0.0))


def assert_store_matches(engine, st, explicit, r):
    """The stored columns of ``B^-1`` against ``np.linalg.inv`` of the
    explicit basis, the columns ``st.basis`` of the dense ``explicit = [A |
    I]``, after a pivot in row ``r``: every stored column and the row ``r``
    used for ``alpha`` match the inverse, and so do the edge norms of all
    rows; the ftran of each basic structural column is the unit vector at
    its position (a basic slack's is one by construction); and one column
    is stored per row whose slack is nonbasic."""
    n, m = engine.n, engine.m
    # the slack columns of the basis are unit columns: with their rows
    # split off, only the square block of the others goes to np.linalg.inv
    slack = st.basis >= n
    struct, slack_row = np.flatnonzero(~slack), st.basis[slack] - n
    b = explicit[:, st.basis[struct]]
    rows = np.setdiff1d(np.arange(m), slack_row)
    inv11 = np.linalg.inv(b[rows])
    inverse = np.zeros((m, m))
    inverse[np.ix_(struct, rows)] = inv11
    inverse[np.ix_(slack, rows)] = -b[slack_row] @ inv11
    inverse[slack, slack_row] = 1.0

    assert st.k == np.count_nonzero(st.vstat[n:] != BASIC)
    assert np.array_equal(st.pos[st.basis], np.arange(m))
    assert np.abs(st.v[:, :st.k] - inverse[:, st.vrow[:st.k]]).max(initial=0.0) <= 1e-9
    assert np.abs(engine._row(st, r) - inverse[r]).max(initial=0.0) <= 1e-9
    norms = (inverse * inverse).sum(axis=1)
    assert np.abs(engine._edge_norms(st, np.arange(m)) - norms).max(initial=0.0) <= 1e-9
    ftran = np.array([engine._ftran(st, j) for j in st.basis[struct]]).reshape(-1, m)
    ftran[np.arange(len(struct)), struct] -= 1.0
    assert np.abs(ftran).max(initial=0.0) <= 1e-9


@pytest.fixture
def checked_pivots(monkeypatch):
    """Checks the store after every pivot; records, per pivot, whether a
    slack left and whether one entered."""
    pivots, explicit = [], {}
    original = SimplexEngine._pivot

    def pivot(self, st, r, q, *args):
        pivots.append((st.basis[r] >= self.n, q >= self.n))
        refactored = original(self, st, r, q, *args)
        if self not in explicit:
            explicit[self] = np.hstack([self.a_csc.toarray(), np.eye(self.m)])
        assert_store_matches(self, st, explicit[self], r)
        return refactored

    monkeypatch.setattr(SimplexEngine, "_pivot", pivot)
    return pivots


class TestInverseStore:
    def test_desk_dev_root_and_child_keep_the_store_exact(self, desk_dev_root, checked_pivots):
        """Pivot by pivot through the desk seed 7 ``dev`` root, where slacks
        both leave and enter, and through one warm child."""
        engine, root, col = desk_dev_root
        assert engine.solve().objective == pytest.approx(root.objective, abs=1e-9)
        assert {(True, False), (False, True)} <= set(checked_pivots)
        checked_pivots.clear()
        child = engine.solve(*fixed(engine, col, 1.0), start=root.basis)
        assert child.status is LpStatus.OPTIMAL and checked_pivots

    @pytest.mark.parametrize("seed", [seed for seed in IN_CLASS if seed < 20])
    def test_random_lps_keep_the_store_exact(self, seed, checked_pivots):
        """Pivot by pivot through a random LP and its bound-fixed children."""
        costs, bounds, rows = random_lp(seed)
        engine = standard_form(lp_model(costs, bounds, rows))
        parent = engine.solve()
        if parent.status is LpStatus.OPTIMAL:
            for col, bound in fixed_children(parent):
                engine.solve(*fixed(engine, col, bound), start=parent.basis)


class TestDeadline:
    def test_past_deadline_stops_the_dual(self, desk_dev_root):
        engine, root, col = desk_dev_root
        raw = engine.solve(deadline=time.monotonic() - 1.0)
        assert raw.status is LpStatus.TIME_LIMIT
        assert raw.iterations == 0
        warm = engine.solve(*fixed(engine, col, 1.0), start=root.basis,
                            deadline=time.monotonic() - 1.0)
        assert warm.status is LpStatus.TIME_LIMIT
        assert warm.iterations == 0

    def test_past_deadline_stops_a_stable_solve(self, desk_dev_root):
        """Stable mode ignores the parent's basis and starts from the slack
        basis, where the deadline stops it just the same."""
        engine, root, col = desk_dev_root
        raw = engine.solve(*fixed(engine, col, 1.0), start=root.basis, stable=True,
                           deadline=time.monotonic() - 1.0)
        assert raw.status is LpStatus.TIME_LIMIT
        assert raw.iterations == 0


#: rosters whose compiled models must start the engine dual feasible
COMPILED_ROSTERS = {
    **{f"desk-{seed}": lambda seed=seed: generate(desk_spec(), seed=seed) for seed in range(1, 6)},
    **{f"oracle-{seed}": lambda seed=seed: oracle_instance(seed) for seed in range(60)},
    **{f"balanced-{n_c}x{size}": lambda n_c=n_c, size=size: generate(balanced_spec(n_c, size), 0)
       for n_c, size in ((6, 14), (5, 12))},
}


@pytest.mark.parametrize("name", sorted(COMPILED_ROSTERS))
def test_compiled_models_start_dual_feasible(name):
    """Every variant's columns have finite bounds their costs prefer, in
    both forms, so the engine takes its slack start, which an iteration cap
    of 0 then stops.  A compiler change that breaks the rule fails here, not
    in a solve."""
    roster = COMPILED_ROSTERS[name]()
    models = [compile_model(roster, variant) for variant in ModelVariant]
    for model in models + [compile_model(roster, ModelVariant.MIN_PAIRS, form="compact")]:
        engine = standard_form(model)
        assert engine.solve(max_iter=0).status is LpStatus.ITERATION_LIMIT, model.variant


def test_a_stalled_dual_perturbs_its_costs_and_finishes():
    """A desk roster's compact pairs root is so dual degenerate that the dual
    cycles below its optimum of 8 for good.  Once a solve has made as many
    iterations as the LP has columns and rows, the costs of its nonbasic
    columns move by at most 2e-7 each, the dual finishes, and the optimum
    reported, verified on the true costs, is HiGHS's."""
    engine = standard_form(compile_model(generate(desk_spec(), seed=3), ModelVariant.MIN_PAIRS,
                                         form="compact"))
    raw = engine.solve()
    assert raw.iterations > engine.n + engine.m
    assert_matches(raw, engine_linprog(engine, engine.default_lower, engine.default_upper))
    assert raw.objective == pytest.approx(8.0, abs=1e-9)


def outer_product_pivot(self, st, r, q, w, every):
    """``SimplexEngine._pivot`` with the rank-one update it replaced: a
    gather, an outer product and a scatter over the columns where the pivot
    row is nonzero."""
    piv = w[r]
    if abs(piv) < PIVOT_EPS:
        raise NumericalFailure("pivot element vanished")
    n, v, k = self.n, st.v, st.k
    leave = int(st.basis[r])
    st.basis[r] = q
    st.vstat[q] = BASIC
    st.pos[leave], st.pos[q] = -1, r
    row = v[r, :k]
    row /= piv
    nz = np.flatnonzero(row)
    wcol = w.copy()
    wcol[r] = 0.0
    v[:, nz] -= np.outer(wcol, row[nz])
    if q >= n:
        c, k = st.vcol[q - n], k - 1
        v[:, c], st.vrow[c] = v[:, k], st.vrow[k]
        st.vcol[st.vrow[c]], st.vcol[q - n] = c, -1
    if leave >= n:
        v[:, k] = wcol * (-1.0 / piv)
        v[r, k] = 1.0 / piv
        st.vrow[k], st.vcol[leave - n] = leave - n, k
        k += 1
    st.k = k
    st.pivots += 1
    st.fresh = False
    if abs(piv) < SMALL_PIVOT or st.want_refactor or st.pivots % every == 0:
        self._refactor(st)
        st.want_refactor = False
        return True
    return False


@pytest.mark.parametrize("seed", [3, 7])
def test_block_update_repeats_the_outer_product_update(seed, monkeypatch):
    """The in-place update of the stored block leaves every stored column as
    the outer-product update did, bit for bit up to the sign of a zero, after
    every pivot of a desk ``dev`` root and of a child from its basis; the
    solves end byte-identical."""
    engine = standard_form(compile_model(generate(desk_spec(), seed=seed),
                                         ModelVariant.MERIT_DEVIATION))

    def run(pivot):
        trail = []

        def recorded(self, st, r, q, w, every):
            out = pivot(self, st, r, q, w, every)
            trail.append(hashlib.sha256((st.v[:, :st.k] + 0.0).tobytes()).hexdigest())
            return out

        monkeypatch.setattr(SimplexEngine, "_pivot", recorded)
        root = engine.solve()
        col = int(np.flatnonzero(np.abs(root.values - np.round(root.values)) > 1e-6)[0])
        child = engine.solve(*fixed(engine, col, 1.0), start=root.basis)
        solves = [(s.status, s.iterations, s.objective, s.values.tobytes(), s.duals.tobytes(),
                   s.basis.basis.tobytes(), s.basis.vstat.tobytes()) for s in (root, child)]
        return trail, solves

    block_trail, block_solves = run(SimplexEngine._pivot)
    outer_trail, outer_solves = run(outer_product_pivot)
    assert len(block_trail) > 50
    assert block_trail == outer_trail
    assert block_solves == outer_solves
