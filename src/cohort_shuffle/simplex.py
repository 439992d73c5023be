"""Bounded-variable primal simplex for the LP relaxations.

The engine works on the computational form ``A x + s = b`` where every
row gets one slack column whose bounds encode the row sense (``<=`` gives
``s in [0, inf)``, ``>=`` gives ``s in (-inf, 0]``, ``=`` pins ``s`` to 0).
Nonbasic variables rest on one of their bounds and the basis inverse is
kept explicitly as a dense matrix, updated by elementary row operations
and rebuilt from scratch every ``REFACTOR_EVERY`` pivots.

Phase 1 appends one artificial column per initially violated row and
minimizes their sum; phase 2 pins the artificials to zero and optimizes
the true costs from the phase-1 basis.  Pricing is Dantzig's rule with a
switch to Bland's rule while the objective stalls, which breaks cycling
on degenerate vertices.  Optimal bases are re-verified against primal
residual and reduced-cost sign conditions; verification failures trigger
refactorize-and-resume retries and finally an explicit numeric-failure
status rather than a wrong answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from cohort_shuffle.ipmodel import SENSES, IpModel, Sense

FEAS_EPS = 1e-6
OPT_EPS = 1e-7
PIVOT_EPS = 1e-9
SMALL_PIVOT = 1e-5
REFACTOR_EVERY = 100
STALL_LIMIT = 100
VERIFY_RETRIES = 3

AT_LOWER, AT_UPPER, BASIC, FREE = 0, 1, 2, 3

INF = float("inf")


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERIC_FAILURE = "numeric_failure"


class NumericalFailure(RuntimeError):
    """Raised when the basis cannot be kept numerically trustworthy."""


@dataclass(frozen=True)
class LpSolution:
    """Result of one LP solve over the relaxed model."""

    status: LpStatus
    values: tuple[float, ...]
    objective: float | None
    duals: tuple[float, ...]
    iterations: int


def standard_form(model: IpModel) -> "SimplexEngine":
    """Build the computational form of a model with integrality relaxed.

    Rows are equilibrated to a max coefficient magnitude of 1, which keeps
    score-sized entries from drowning the feasibility and optimality
    tolerances.  Slack bounds are 0 or infinite, so row scaling leaves the
    senses intact; duals are scaled back on the way out.
    """
    rows = model.rows
    c = np.array([v.objective for v in model.variables], dtype=float)
    lower = np.array([v.lower for v in model.variables], dtype=float)
    upper = np.array([v.upper for v in model.variables], dtype=float)

    counts = np.diff(rows.indptr)
    nonempty = counts > 0
    row_max = np.zeros(len(rows))
    row_max[nonempty] = np.maximum.reduceat(np.abs(rows.coefs), rows.indptr[:-1][nonempty])
    row_scale = np.ones(len(rows))
    np.divide(1.0, row_max, out=row_scale, where=row_max > 0.0)
    a_csr = sparse.csr_matrix((rows.coefs * np.repeat(row_scale, counts), rows.cols, rows.indptr),
                              shape=(len(rows), model.num_vars))
    slack_lo = np.where(rows.sense == SENSES.index(Sense.GE), -INF, 0.0)
    slack_hi = np.where(rows.sense == SENSES.index(Sense.LE), INF, 0.0)
    return SimplexEngine(c, a_csr.tocsc(), rows.rhs * row_scale, slack_lo, slack_hi, lower, upper,
                         row_scale=row_scale)


@dataclass
class _RawResult:
    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    iterations: int


class _State:
    """Mutable per-solve state; everything on the engine stays read-only."""

    __slots__ = ("bl", "bu", "x", "vstat", "basis", "pos", "binv", "cost",
                 "n_art", "art_row", "art_sign", "iterations", "pivots",
                 "stall", "bland", "obj", "refactor_every", "want_refactor")

    def __init__(self) -> None:
        self.iterations = 0
        self.pivots = 0
        self.stall = 0
        self.bland = False
        self.refactor_every = REFACTOR_EVERY
        self.want_refactor = False


class SimplexEngine:
    """Reusable solver for one constraint matrix under varying bounds.

    The matrix, senses, and costs are fixed at construction; every call to
    :meth:`solve` takes its own copy of the variable bounds, so branching
    can tighten bounds freely and concurrent calls never share state.
    """

    def __init__(self, c: np.ndarray, a_csc: sparse.csc_matrix, b: np.ndarray,
                 slack_lo: np.ndarray, slack_hi: np.ndarray,
                 default_lower: np.ndarray, default_upper: np.ndarray,
                 row_scale: np.ndarray | None = None) -> None:
        self.n = a_csc.shape[1]
        self.m = a_csc.shape[0]
        self.c = c
        self.a_csc = a_csc
        self.at_csr = a_csc.T.tocsr()
        self.b = b
        self.slack_lo = slack_lo
        self.slack_hi = slack_hi
        self.default_lower = default_lower
        self.default_upper = default_upper
        self.row_scale = np.ones(self.m) if row_scale is None else row_scale
        self._res_scale = 1.0 + (float(np.max(np.abs(b))) if len(b) else 0.0)

    # column j layout: [0, n) structural, [n, n+m) slack, [n+m, ...) artificial

    def _column(self, st: _State, j: int) -> tuple[np.ndarray, np.ndarray]:
        n, m = self.n, self.m
        if j < n:
            lo, hi = self.a_csc.indptr[j], self.a_csc.indptr[j + 1]
            return self.a_csc.indices[lo:hi], self.a_csc.data[lo:hi]
        if j < n + m:
            return np.array([j - n]), np.array([1.0])
        k = j - n - m
        return np.array([st.art_row[k]]), np.array([float(st.art_sign[k])])

    def _ftran(self, st: _State, j: int) -> np.ndarray:
        rows, vals = self._column(st, j)
        if len(rows) == 1:
            return st.binv[:, rows[0]] * vals[0]
        return st.binv[:, rows] @ vals

    def _reduced_costs(self, st: _State) -> tuple[np.ndarray, np.ndarray]:
        cb = st.cost[st.basis]
        y = st.binv.T @ cb
        d = np.empty(len(st.cost))
        n, m = self.n, self.m
        d[:n] = st.cost[:n] - self.at_csr @ y
        d[n:n + m] = st.cost[n:n + m] - y
        if st.n_art:
            d[n + m:] = st.cost[n + m:] - st.art_sign * y[st.art_row]
        return d, y

    def _refactor(self, st: _State) -> None:
        m = self.m
        bmat = np.zeros((m, m))
        for pos in range(m):
            rows, vals = self._column(st, int(st.basis[pos]))
            bmat[rows, pos] = vals
        try:
            st.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        # recompute basic values from the nonbasic point to kill drift
        xn = st.x.copy()
        xn[st.basis] = 0.0
        rhs = self.b - self.a_csc @ xn[:self.n]
        rhs -= xn[self.n:self.n + self.m]
        for k in range(st.n_art):
            rhs[st.art_row[k]] -= st.art_sign[k] * xn[self.n + self.m + k]
        st.x[st.basis] = st.binv @ rhs
        st.obj = float(st.cost @ st.x)

    def _init_state(self, lower: np.ndarray, upper: np.ndarray) -> _State:
        n, m = self.n, self.m
        st = _State()
        bl = np.concatenate([lower, self.slack_lo])
        bu = np.concatenate([upper, self.slack_hi])
        # structurals rest on a finite bound, lower first; free ones at 0
        has_lo, has_hi = bl[:n] > -INF, bu[:n] < INF
        x = np.concatenate([np.where(has_lo, bl[:n], np.where(has_hi, bu[:n], 0.0)), np.zeros(m)])
        vstat = np.concatenate([np.where(has_lo, AT_LOWER, np.where(has_hi, AT_UPPER, FREE)),
                                np.full(m, BASIC)]).astype(np.int8)

        # a slack takes its row's residual if its bounds allow, else the
        # nearest bound, and an artificial column covers the rest
        r = self.b - self.a_csc @ x[:n]
        ok = (self.slack_lo - FEAS_EPS <= r) & (r <= self.slack_hi + FEAS_EPS)
        clamped = np.minimum(np.maximum(r, self.slack_lo), self.slack_hi)
        x[n:] = np.where(ok, r, clamped)
        st.art_row = np.flatnonzero(~ok)
        st.n_art = len(st.art_row)
        vstat[n + st.art_row] = np.where(clamped[st.art_row] == self.slack_lo[st.art_row],
                                         AT_LOWER, AT_UPPER)
        excess = r[st.art_row] - clamped[st.art_row]
        st.art_sign = np.where(excess > 0, 1.0, -1.0)
        basis = n + np.arange(m)
        basis[st.art_row] = n + m + np.arange(st.n_art)
        st.bl = np.concatenate([bl, np.zeros(st.n_art)])
        st.bu = np.concatenate([bu, np.full(st.n_art, INF)])
        st.x = np.concatenate([x, np.abs(excess)])
        st.vstat = np.concatenate([vstat, np.full(st.n_art, BASIC, dtype=np.int8)])
        st.basis = basis
        st.binv = np.eye(m)
        st.binv[st.art_row, st.art_row] = st.art_sign
        return st

    def _iterate(self, st: _State, max_iter: int) -> LpStatus:
        """Run pricing/ratio/pivot until the current cost vector is optimal."""
        n, m = self.n, self.m
        st.obj = float(st.cost @ st.x)
        movable = (st.bu - st.bl) > 0
        while True:
            if st.iterations >= max_iter:
                return LpStatus.ITERATION_LIMIT
            st.iterations += 1

            d, _ = self._reduced_costs(st)
            eps = OPT_EPS * (1.0 + float(np.max(np.abs(st.cost))))
            eligible = (st.vstat != BASIC) & movable & (
                ((st.vstat == AT_LOWER) & (d < -eps))
                | ((st.vstat == AT_UPPER) & (d > eps))
                | ((st.vstat == FREE) & (np.abs(d) > eps)))
            if not eligible.any():
                return LpStatus.OPTIMAL
            if st.bland:
                q = int(np.nonzero(eligible)[0][0])
            else:
                score = np.where(eligible, np.abs(d), -1.0)
                q = int(np.argmax(score))

            up = st.vstat[q] == AT_LOWER or (st.vstat[q] == FREE and d[q] < 0)
            direction = 1.0 if up else -1.0
            w = self._ftran(st, q)
            delta = -direction * w

            xb = st.x[st.basis]
            cand_t = np.full(m, INF)
            grow = delta > PIVOT_EPS
            shrink = delta < -PIVOT_EPS
            ub_room = st.bu[st.basis] - xb
            lb_room = xb - st.bl[st.basis]
            cand_t[grow] = np.maximum(ub_room[grow], 0.0) / delta[grow]
            cand_t[shrink] = np.maximum(lb_room[shrink], 0.0) / (-delta[shrink])
            t_basic = float(cand_t.min()) if m else INF
            flip_t = st.bu[q] - st.bl[q]
            t = min(t_basic, flip_t)
            if t == INF:
                return LpStatus.UNBOUNDED

            old_obj = st.obj
            if flip_t <= t_basic:
                # bound flip: variable crosses to its other bound, no pivot
                st.x[st.basis] += delta * flip_t
                if st.vstat[q] == AT_LOWER:
                    st.x[q] = st.bu[q]
                    st.vstat[q] = AT_UPPER
                else:
                    st.x[q] = st.bl[q]
                    st.vstat[q] = AT_LOWER
            else:
                hits = np.nonzero(cand_t <= t + 1e-12)[0]
                if st.bland:
                    r = int(hits[np.argmin(st.basis[hits])])
                else:
                    # largest pivot among the tied blockers keeps B well-conditioned
                    r = int(hits[np.argmax(np.abs(delta[hits]))])
                leave = int(st.basis[r])
                st.x[st.basis] += delta * t
                st.x[q] = st.x[q] + direction * t if st.vstat[q] == FREE else (
                    st.bl[q] + t if st.vstat[q] == AT_LOWER else st.bu[q] - t)
                if delta[r] > 0:
                    st.x[leave] = st.bu[leave]
                    st.vstat[leave] = AT_UPPER
                else:
                    st.x[leave] = st.bl[leave]
                    st.vstat[leave] = AT_LOWER
                st.basis[r] = q
                st.vstat[q] = BASIC
                piv = w[r]
                if abs(piv) < PIVOT_EPS:
                    raise NumericalFailure("pivot element vanished")
                st.binv[r, :] /= piv
                wcol = w.copy()
                wcol[r] = 0.0
                st.binv -= np.outer(wcol, st.binv[r, :])
                st.pivots += 1
                if abs(piv) < SMALL_PIVOT:
                    st.want_refactor = True
                if st.want_refactor or st.pivots % st.refactor_every == 0:
                    self._refactor(st)
                    st.want_refactor = False

            st.obj = float(st.cost @ st.x)
            if st.obj < old_obj - 1e-12 * (1.0 + abs(old_obj)):
                st.stall = 0
                st.bland = False
            else:
                st.stall += 1
                if st.stall >= STALL_LIMIT:
                    st.bland = True

    def _verified_optimal(self, st: _State) -> bool:
        n, m = self.n, self.m
        x = st.x
        if np.any(x < st.bl - FEAS_EPS) or np.any(x > st.bu + FEAS_EPS):
            return False
        act = self.a_csc @ x[:n] + x[n:n + m]
        for k in range(st.n_art):
            act[st.art_row[k]] += st.art_sign[k] * x[n + m + k]
        if float(np.max(np.abs(act - self.b), initial=0.0)) > FEAS_EPS * self._res_scale:
            return False
        d, _ = self._reduced_costs(st)
        eps = 10 * OPT_EPS * (1.0 + float(np.max(np.abs(st.cost))))
        movable = (st.bu - st.bl) > 0
        bad = (st.vstat != BASIC) & movable & (
            ((st.vstat == AT_LOWER) & (d < -eps))
            | ((st.vstat == AT_UPPER) & (d > eps))
            | ((st.vstat == FREE) & (np.abs(d) > eps)))
        return not bool(bad.any())

    def solve(self, lower: np.ndarray | None = None,
              upper: np.ndarray | None = None, *,
              max_iter: int | None = None, stable: bool = False) -> _RawResult:
        """Solve the LP under the given variable bounds.

        Returns raw arrays; :func:`solve_lp` wraps them in the public type.
        ``stable`` trades speed for robustness (Bland's rule throughout and
        frequent refactorization), used to retry a failed solve.
        """
        lo = self.default_lower if lower is None else lower
        hi = self.default_upper if upper is None else upper
        if np.any(lo > hi + 1e-12):
            return _RawResult(LpStatus.INFEASIBLE, None, None, None, 0)
        if max_iter is None:
            max_iter = 50 * (self.n + self.m) + 2000

        if self.m == 0:
            return self._solve_boxed(lo, hi)

        st = self._init_state(lo.astype(float), hi.astype(float))
        if stable:
            st.bland = True
            st.refactor_every = 20
        try:
            return self._run_phases(st, max_iter, stable)
        except NumericalFailure:
            return _RawResult(LpStatus.NUMERIC_FAILURE, None, None, None, st.iterations)

    def _run_phases(self, st: _State, max_iter: int, stable: bool) -> _RawResult:
        if st.n_art:
            st.cost = np.zeros(self.n + self.m + st.n_art)
            st.cost[self.n + self.m:] = 1.0
            status = self._iterate(st, max_iter)
            if status is LpStatus.ITERATION_LIMIT:
                return _RawResult(status, None, None, None, st.iterations)
            if status is LpStatus.UNBOUNDED:
                raise NumericalFailure("phase 1 reported unbounded")
            if st.obj > 1e-7 * self._res_scale:
                return _RawResult(LpStatus.INFEASIBLE, None, None, None, st.iterations)
            self._pin_artificials(st)

        st.cost = np.zeros(self.n + self.m + st.n_art)
        st.cost[:self.n] = self.c
        st.stall = 0
        st.bland = stable
        for attempt in range(VERIFY_RETRIES + 1):
            status = self._iterate(st, max_iter)
            if status is not LpStatus.OPTIMAL:
                return _RawResult(status, None, None, None, st.iterations)
            if self._verified_optimal(st):
                break
            if attempt == VERIFY_RETRIES:
                return _RawResult(LpStatus.NUMERIC_FAILURE, None, None, None, st.iterations)
            self._refactor(st)

        _, y = self._reduced_costs(st)
        xs = st.x[:self.n].copy()
        obj = float(self.c @ xs)
        return _RawResult(LpStatus.OPTIMAL, xs, obj, y * self.row_scale, st.iterations)

    def _pin_artificials(self, st: _State) -> None:
        """Fix artificials to zero; pivot basic ones out where possible."""
        n, m = self.n, self.m
        st.bl[n + m:] = 0.0
        st.bu[n + m:] = 0.0
        for k in range(st.n_art):
            st.x[n + m + k] = 0.0 if abs(st.x[n + m + k]) < FEAS_EPS else st.x[n + m + k]
        for pos in range(m):
            j = int(st.basis[pos])
            if j < n + m:
                continue
            # row of the tableau: e_pos^T Binv A over candidate columns
            row = st.binv[pos, :]
            alpha_struct = self.at_csr @ row
            pivot_col = -1
            for cand in range(n + m):
                if st.vstat[cand] == BASIC or st.bu[cand] - st.bl[cand] <= 0:
                    continue
                alpha = alpha_struct[cand] if cand < n else row[cand - n]
                if abs(alpha) > 1e-7:
                    pivot_col = cand
                    break
            if pivot_col < 0:
                continue  # redundant row; artificial stays basic at zero
            # degenerate swap: entering keeps its current bound value
            w = self._ftran(st, pivot_col)
            st.basis[pos] = pivot_col
            st.vstat[pivot_col] = BASIC
            st.vstat[j] = AT_LOWER
            st.x[j] = 0.0
            piv = w[pos]
            st.binv[pos, :] /= piv
            wcol = w.copy()
            wcol[pos] = 0.0
            st.binv -= np.outer(wcol, st.binv[pos, :])
            st.pivots += 1

    def _solve_boxed(self, lo: np.ndarray, hi: np.ndarray) -> _RawResult:
        c = self.c
        if np.any((c > 0) & (lo == -INF)) or np.any((c < 0) & (hi == INF)):
            return _RawResult(LpStatus.UNBOUNDED, None, None, None, 0)
        # each column at its cheaper bound; a costless one at any finite bound
        x = np.where(c > 0, lo, np.where(c < 0, hi, np.where(
            lo > -INF, lo, np.where(hi < INF, hi, 0.0)))).astype(float)
        return _RawResult(LpStatus.OPTIMAL, x, float(c @ x), np.zeros(0), 0)


def solve_lp(model: IpModel, *, max_iter: int | None = None) -> LpSolution:
    """Solve the LP relaxation of a model as-is, with row duals.

    Integrality markers are ignored; binaries contribute their [0, 1]
    bounds.  The solution reports one dual value per constraint row (the
    sensitivity of the optimal objective to that row's right-hand side).
    """
    if model.num_vars < 1:
        raise ValueError("model has no variables")
    engine = standard_form(model)
    raw = engine.solve(max_iter=max_iter)
    if raw.status is not LpStatus.OPTIMAL:
        return LpSolution(raw.status, (), None, (), raw.iterations)
    return LpSolution(LpStatus.OPTIMAL, tuple(float(v) for v in raw.x),
                      raw.objective, tuple(float(v) for v in raw.duals),
                      raw.iterations)
