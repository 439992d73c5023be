"""LP engine checks against an independent solver and hand-built cases.

Random models are cross-checked against scipy's HiGHS frontend: statuses
must agree, optimal objectives must match to 1e-6, and the returned
point must satisfy every row.  Duals follow the change-in-objective-per-
unit-rhs convention, verified on fixed instances where the dual vector
is unique.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.optimize import linprog

from cohort_shuffle import LpStatus, ModelVariant, compile_model, solve_lp, standard_form
from cohort_shuffle.ipmodel import IpModel, LinearRow, Sense, VarKind, Variable

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
        assert sol.values == pytest.approx((2 / 3, 5 / 3))
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
        assert sol.objective is None and sol.values == ()

    def test_unbounded_without_rows(self):
        sol = solve_lp(lp_model((-1.0,), [(0.0, INF)], []))
        assert sol.status is LpStatus.UNBOUNDED

    def test_unbounded_with_rows(self):
        sol = solve_lp(lp_model((-1.0, 0.0), [(0.0, INF), (0.0, INF)],
                                [((1.0, -1.0), Sense.LE, 0.0)]))
        assert sol.status is LpStatus.UNBOUNDED

    def test_boxed_only_picks_cheapest_bounds(self):
        sol = solve_lp(lp_model((1.0, -2.0, 0.0),
                                [(1.0, 4.0), (0.0, 3.0), (-1.0, 5.0)], []))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values == pytest.approx((1.0, 3.0, -1.0))
        assert sol.objective == pytest.approx(1.0 - 6.0)

    def test_free_variable(self):
        sol = solve_lp(lp_model((1.0,), [(-INF, INF)], [((1.0,), Sense.GE, -5.0)]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-5.0)

    def test_free_variable_unbounded(self):
        sol = solve_lp(lp_model((1.0,), [(-INF, INF)], []))
        assert sol.status is LpStatus.UNBOUNDED

    def test_equality_fixing_variable(self):
        sol = solve_lp(lp_model((0.0, 1.0), [(0.0, 9.0)] * 2,
                                [((1.0, 0.0), Sense.EQ, 7.0),
                                 ((1.0, 1.0), Sense.GE, 8.0)]))
        assert sol.values == pytest.approx((7.0, 1.0))

    def test_iteration_limit_status(self):
        rows = [((1.0, 1.0), Sense.GE, 4.0), ((1.0, -1.0), Sense.LE, 1.0)]
        sol = solve_lp(lp_model((2.0, 3.0), [(0.0, 10.0)] * 2, rows), max_iter=1)
        assert sol.status is LpStatus.ITERATION_LIMIT

    def test_model_without_variables_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(IpModel(ModelVariant.MIN_SAME_COMPANY, (), ()))


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


@pytest.mark.parametrize("seed", range(60))
def test_random_lps_match_reference_solver(seed):
    costs, bounds, rows = random_lp(seed)
    sol = solve_lp(lp_model(costs, bounds, rows))
    ref = scipy_solve(costs, bounds, rows)
    if ref.status == 2:
        assert sol.status is LpStatus.INFEASIBLE
        return
    if ref.status == 3:
        assert sol.status is LpStatus.UNBOUNDED
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
        assert a == b

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
