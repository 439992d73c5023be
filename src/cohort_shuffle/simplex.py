"""Bounded-variable dual and primal simplex for the LP relaxations.

The engine works on the computational form ``A x + s = b`` where every
row gets one slack column whose bounds encode the row sense (``<=`` gives
``s in [0, inf)``, ``>=`` gives ``s in (-inf, 0]``, ``=`` pins ``s`` to 0).
Nonbasic variables rest on one of their bounds and the basis inverse is
kept explicitly as a dense matrix, updated by elementary row operations
and rebuilt from scratch every ``REFACTOR_EVERY`` pivots.

The bounded dual simplex does most solves: dual steepest-edge choice of
the leaving row, and a long-step ratio test that flips boxed columns to
their other bound instead of entering them while the leaving row stays
infeasible.  A root LP starts it from the slack basis with every column
on its lower bound, which is dual feasible for nonnegative costs, as in
every model variant; a branch-and-bound child starts it from its parent's
optimal basis, which one bound fix leaves dual feasible.

The two-phase primal simplex solves LPs without such a start and takes
over dual runs that fail.  Phase 1 appends one artificial column per
initially violated row and minimizes their sum; phase 2 pins the
artificials to zero and optimizes the true costs.  Pricing is Dantzig's
rule with a switch to Bland's rule while the objective stalls, which
breaks cycling on degenerate vertices.  Every optimum, the dual's
included, passes a phase-2 pricing pass and is re-verified against
primal residual and reduced-cost sign conditions; verification failures
trigger refactorize-and-resume retries and finally an explicit
numeric-failure status rather than a wrong answer.  A deadline is read
every ``DEADLINE_EVERY`` iterations and ends a solve with a time-limit
status once passed.

Every solve returns an :class:`LpSolution` of float64 arrays, and
:meth:`SimplexEngine.feasible` checks any point against the scaled rows
under the tolerance an optimum is verified to.
"""

from __future__ import annotations

import enum
import time
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
#: iterations between two reads of the clock against a solve's deadline
DEADLINE_EVERY = 20
#: dual iterations per row and column before the primal takes over a stalled run
DUAL_ITER_PER_DIM = 2

AT_LOWER, AT_UPPER, BASIC, FREE = 0, 1, 2, 3

INF = float("inf")


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERIC_FAILURE = "numeric_failure"
    TIME_LIMIT = "time_limit"


class NumericalFailure(RuntimeError):
    """Raised when the basis cannot be kept numerically trustworthy."""


@dataclass(frozen=True)
class LpSolution:
    """Result of one LP solve.  An optimum sets ``values`` (float64, one
    per column), ``duals`` (one per model row), ``objective`` and ``basis``
    (None while an artificial column stays basic); a solve that stops or
    fails leaves them None."""

    status: LpStatus
    iterations: int
    values: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    basis: Basis | None = None


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
class Basis:
    """A basis to start a solve from: the basic column of each row and the
    status of every structural and slack column.  The solve refactors it,
    which costs little: only its structural columns are inverted."""

    basis: np.ndarray
    vstat: np.ndarray


class _State:
    """Mutable per-solve state; everything on the engine stays read-only."""

    __slots__ = ("bl", "bu", "x", "vstat", "basis", "binv", "cost",
                 "n_art", "art_row", "art_sign", "iterations", "pivots",
                 "stall", "bland", "obj", "refactor_every", "want_refactor", "fresh")

    def __init__(self) -> None:
        self.iterations = 0
        self.pivots = 0
        self.stall = 0
        self.bland = False
        self.refactor_every = REFACTOR_EVERY
        self.want_refactor = False
        self.fresh = False
        self.n_art = 0
        self.art_row = np.zeros(0, dtype=np.int64)
        self.art_sign = np.zeros(0)


class SimplexEngine:
    """Reusable solver for one constraint matrix under varying bounds.

    The matrix, senses, and costs are fixed at construction; every call to
    :meth:`solve` takes its own copy of the variable bounds, so branching
    can tighten bounds freely and concurrent calls never share state.
    """

    def __init__(self, c: np.ndarray, a_csc: sparse.csc_matrix, b: np.ndarray,
                 slack_lo: np.ndarray, slack_hi: np.ndarray,
                 default_lower: np.ndarray, default_upper: np.ndarray,
                 row_scale: np.ndarray) -> None:
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
        self.row_scale = row_scale
        self._res_scale = 1.0 + (float(np.max(np.abs(b))) if len(b) else 0.0)

    def feasible(self, x: np.ndarray) -> bool:
        """Whether a structural point keeps its default bounds and satisfies
        every scaled row, within the tolerance an optimum is verified to."""
        if np.any(x < self.default_lower - FEAS_EPS) or np.any(x > self.default_upper + FEAS_EPS):
            return False
        r = self.b - self.a_csc @ x
        eps = FEAS_EPS * self._res_scale
        return bool(np.all(r >= self.slack_lo - eps) and np.all(r <= self.slack_hi + eps))

    # column j layout: [0, n) structural, [n, n+m) slack, [n+m, ...) artificial

    def _ftran(self, st: _State, j: int) -> np.ndarray:
        """``B^-1`` times column ``j``, as a new array."""
        n, m = self.n, self.m
        if j < n:
            lo, hi = self.a_csc.indptr[j], self.a_csc.indptr[j + 1]
            return st.binv[:, self.a_csc.indices[lo:hi]] @ self.a_csc.data[lo:hi]
        if j < n + m:
            return st.binv[:, j - n].copy()
        return st.binv[:, st.art_row[j - n - m]] * st.art_sign[j - n - m]

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
        """Invert the basis through its structural block alone.

        Slack and artificial columns are signed unit columns.  With the rows
        they cover permuted last, ``B = [[B11, 0], [B21, D]]`` for a diagonal
        sign matrix ``D``, so ``B^-1 = [[B11^-1, 0], [-D B21 B11^-1, D]]``
        and only the structural block ``B11`` is inverted.
        """
        n, m = self.n, self.m
        unit = np.flatnonzero(st.basis >= n)
        struct = np.flatnonzero(st.basis < n)
        unit_row, unit_sign = st.basis[unit] - n, np.ones(len(unit))
        art = unit_row >= m
        unit_sign[art] = st.art_sign[unit_row[art] - m]
        unit_row[art] = st.art_row[unit_row[art] - m]
        rest = np.setdiff1d(np.arange(m), unit_row)
        if len(rest) != len(struct):
            raise NumericalFailure("singular basis during refactorization")
        cols = self.a_csc[:, st.basis[struct]]
        try:
            b11_inv = np.linalg.inv(cols[rest].toarray())
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        st.binv = np.zeros((m, m))
        st.binv[np.ix_(struct, rest)] = b11_inv
        st.binv[unit, unit_row] = unit_sign
        st.binv[np.ix_(unit, rest)] = -unit_sign[:, None] * (cols[unit_row] @ b11_inv)
        st.fresh = True
        # recompute basic values from the nonbasic point to kill drift
        xn = st.x.copy()
        xn[st.basis] = 0.0
        rhs = self.b - self.a_csc @ xn[:n] - xn[n:n + m]
        np.subtract.at(rhs, st.art_row, st.art_sign * xn[n + m:])
        st.x[st.basis] = st.binv @ rhs

    def _pivot(self, st: _State, r: int, q: int, w: np.ndarray) -> bool:
        """Make column ``q`` basic in row ``r`` given its ftran ``w``, updating
        the inverse by row operations; True when that refactorized."""
        piv = w[r]
        if abs(piv) < PIVOT_EPS:
            raise NumericalFailure("pivot element vanished")
        st.basis[r] = q
        st.vstat[q] = BASIC
        st.binv[r, :] /= piv
        wcol = w.copy()
        wcol[r] = 0.0
        st.binv -= np.outer(wcol, st.binv[r, :])
        st.pivots += 1
        st.fresh = False
        if abs(piv) < SMALL_PIVOT or st.want_refactor or st.pivots % st.refactor_every == 0:
            self._refactor(st)
            st.want_refactor = False
            return True
        return False

    def _stopped(self, st: _State, max_iter: int, deadline: float | None) -> LpStatus | None:
        if st.iterations >= max_iter:
            return LpStatus.ITERATION_LIMIT
        if (deadline is not None and st.iterations % DEADLINE_EVERY == 0
                and time.monotonic() > deadline):
            return LpStatus.TIME_LIMIT
        return None

    def _resting(self, st: _State, lower: np.ndarray, upper: np.ndarray,
                 start: Basis | None = None) -> None:
        """Bounds, basis and nonbasic point: those of ``start``, or else the
        slack basis with every structural on a finite bound, lower first, and
        a free one at 0."""
        n, m = self.n, self.m
        st.bl = np.concatenate([lower, self.slack_lo])
        st.bu = np.concatenate([upper, self.slack_hi])
        if start is None:
            st.vstat = np.concatenate([np.where(lower > -INF, AT_LOWER, np.where(upper < INF, AT_UPPER, FREE)),
                                       np.full(m, BASIC)]).astype(np.int8)
            st.basis = n + np.arange(m)
        else:
            st.vstat, st.basis = start.vstat.copy(), start.basis.copy()
        st.x = np.where(st.vstat == AT_LOWER, st.bl, np.where(st.vstat == AT_UPPER, st.bu, 0.0))
        st.x[st.basis] = 0.0

    def _init_state(self, lower: np.ndarray, upper: np.ndarray) -> _State:
        n, m = self.n, self.m
        st = _State()
        self._resting(st, lower, upper)
        # a slack takes its row's residual if its bounds allow, else the
        # nearest bound, and an artificial column covers the rest
        r = self.b - self.a_csc @ st.x[:n]
        ok = (self.slack_lo - FEAS_EPS <= r) & (r <= self.slack_hi + FEAS_EPS)
        clamped = np.minimum(np.maximum(r, self.slack_lo), self.slack_hi)
        st.x[n:] = np.where(ok, r, clamped)
        st.art_row = np.flatnonzero(~ok)
        st.n_art = len(st.art_row)
        st.vstat[n + st.art_row] = np.where(clamped[st.art_row] == self.slack_lo[st.art_row],
                                            AT_LOWER, AT_UPPER)
        excess = r[st.art_row] - clamped[st.art_row]
        st.art_sign = np.where(excess > 0, 1.0, -1.0)
        st.basis[st.art_row] = n + m + np.arange(st.n_art)
        st.bl = np.concatenate([st.bl, np.zeros(st.n_art)])
        st.bu = np.concatenate([st.bu, np.full(st.n_art, INF)])
        st.x = np.concatenate([st.x, np.abs(excess)])
        st.vstat = np.concatenate([st.vstat, np.full(st.n_art, BASIC, dtype=np.int8)])
        self._refactor(st)
        return st

    def _dual_state(self, lower: np.ndarray, upper: np.ndarray, start: Basis | None) -> _State | None:
        """A dual-feasible state under the given bounds, or None for want of one.

        A start's basis was optimal under looser bounds, so its reduced costs
        keep their signs; it serves unless a nonbasic column would rest off a
        finite point within its bounds.  Without one, the primal's starting
        point serves when its costs already have the signs of reduced costs
        at an optimum, as every variant's do.
        """
        st = _State()
        self._resting(st, lower, upper, start)
        st.cost = np.concatenate([self.c, np.zeros(self.m)])
        nb = st.vstat != BASIC
        if not np.all(np.isfinite(st.x[nb]) & (st.x[nb] >= st.bl[nb]) & (st.x[nb] <= st.bu[nb])):
            return None
        if start is None and self._priced(st, st.cost, 0.0).any():
            return None
        self._refactor(st)
        return st

    def _priced(self, st: _State, d: np.ndarray, eps: float) -> np.ndarray:
        """Nonbasic columns free to move whose reduced cost has the wrong sign
        for an optimum by more than ``eps``."""
        vs = st.vstat
        return (vs != BASIC) & (st.bu > st.bl) & (
            ((vs == AT_LOWER) & (d < -eps)) | ((vs == AT_UPPER) & (d > eps))
            | ((vs == FREE) & (np.abs(d) > eps)))

    def _iterate(self, st: _State, max_iter: int, deadline: float | None) -> LpStatus:
        """Run pricing/ratio/pivot until the current cost vector is optimal."""
        n, m = self.n, self.m
        st.obj = float(st.cost @ st.x)
        while True:
            stop = self._stopped(st, max_iter, deadline)
            if stop is not None:
                return stop
            st.iterations += 1

            d, _ = self._reduced_costs(st)
            eligible = self._priced(st, d, OPT_EPS * (1.0 + float(np.max(np.abs(st.cost)))))
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
                self._pivot(st, r, q, w)

            st.obj = float(st.cost @ st.x)
            if st.obj < old_obj - 1e-12 * (1.0 + abs(old_obj)):
                st.stall = 0
                st.bland = False
            else:
                st.stall += 1
                if st.stall >= STALL_LIMIT:
                    st.bland = True

    def _dual(self, st: _State, max_iter: int, deadline: float | None) -> LpStatus:
        """Bounded dual simplex from a dual-feasible state.

        Each iteration picks the basic variable whose bound violation is
        largest relative to its row of the inverse (dual steepest edge) and
        sends it to the violated bound.  The entering column is found by the
        long-step ratio test: breakpoints are passed in ratio order, the
        larger pivot first among ties, while the leaving row stays
        infeasible, and each boxed column passed flips to its other bound
        instead of losing dual feasibility.  OPTIMAL means primal feasible;
        INFEASIBLE comes from a row that no move of the nonbasic columns
        within their bounds can repair, on a fresh inverse.
        """
        n, m = self.n, self.m
        movable = (st.bu - st.bl) > 0
        d, _ = self._reduced_costs(st)
        while True:
            xb = st.x[st.basis]
            below, above = st.bl[st.basis] - xb, xb - st.bu[st.basis]
            infeas = np.maximum(below, above)
            if infeas.max(initial=0.0) <= FEAS_EPS:
                return LpStatus.OPTIMAL
            score = np.where(infeas > FEAS_EPS, infeas * infeas, 0.0) / np.einsum("ij,ij->i", st.binv, st.binv)
            r = int(np.argmax(score))
            stop = self._stopped(st, max_iter, deadline)
            if stop is not None:
                return stop
            st.iterations += 1

            s = 1.0 if below[r] > 0 else -1.0
            leave = int(st.basis[r])
            alpha = s * np.concatenate([self.at_csr @ st.binv[r], st.binv[r]])
            vs = st.vstat
            j = np.flatnonzero(movable & (
                ((vs == AT_LOWER) & (alpha < -PIVOT_EPS)) | ((vs == AT_UPPER) & (alpha > PIVOT_EPS))
                | ((vs == FREE) & (np.abs(alpha) > PIVOT_EPS))))
            ratio = np.where(vs[j] == FREE, 0.0, np.maximum(-d[j] / alpha[j], 0.0))
            order = np.lexsort((-np.abs(alpha[j]), ratio))
            j, ratio = j[order], ratio[order]
            slope = infeas[r] - np.cumsum((st.bu[j] - st.bl[j]) * np.abs(alpha[j]))
            passed = np.flatnonzero(slope <= 0.0)
            if len(passed) == 0:
                if st.fresh:
                    return LpStatus.INFEASIBLE
                self._refactor(st)
                d, _ = self._reduced_costs(st)
                continue
            k = int(passed[0])
            q, t = int(j[k]), float(ratio[k])

            d += t * alpha
            d[q] = 0.0
            flip = j[:k]
            if len(flip):
                up = vs[flip] == AT_LOWER
                dx = np.zeros(n + m)
                dx[flip] = np.where(up, st.bu[flip], st.bl[flip]) - st.x[flip]
                st.x[flip] += dx[flip]
                vs[flip] = np.where(up, AT_UPPER, AT_LOWER)
                st.x[st.basis] -= st.binv @ (self.a_csc @ dx[:n] + dx[n:])

            w = self._ftran(st, q)
            if abs(w[r] - s * alpha[q]) > 1e-6 * (1.0 + abs(w[r])):
                st.want_refactor = True  # row and column disagree: the inverse has drifted
            target = st.bl[leave] if s > 0 else st.bu[leave]
            theta = (st.x[leave] - target) / w[r]
            st.x[st.basis] -= theta * w
            st.x[q] += theta
            st.x[leave] = target
            vs[leave] = AT_LOWER if s > 0 else AT_UPPER
            if self._pivot(st, r, q, w):
                d, _ = self._reduced_costs(st)

    def _verified_optimal(self, st: _State) -> bool:
        n, m = self.n, self.m
        x = st.x
        if np.any(x < st.bl - FEAS_EPS) or np.any(x > st.bu + FEAS_EPS):
            return False
        act = self.a_csc @ x[:n] + x[n:n + m]
        np.add.at(act, st.art_row, st.art_sign * x[n + m:])
        if float(np.max(np.abs(act - self.b), initial=0.0)) > FEAS_EPS * self._res_scale:
            return False
        d, _ = self._reduced_costs(st)
        return not self._priced(st, d, 10 * OPT_EPS * (1.0 + float(np.max(np.abs(st.cost))))).any()

    def solve(self, lower: np.ndarray | None = None,
              upper: np.ndarray | None = None, *,
              max_iter: int | None = None, stable: bool = False,
              start: Basis | None = None, deadline: float | None = None) -> LpSolution:
        """Solve the LP under the given variable bounds.

        The bounded dual simplex runs from ``start``, a basis that was
        optimal under looser bounds (a branching parent's), or else from the
        slack basis.  When that start is not dual feasible, or the dual run
        fails numerically, stalls past ``DUAL_ITER_PER_DIM`` iterations per
        row and column or does not verify, the two-phase primal simplex
        solves from scratch.  ``stable`` goes straight to the primal with
        Bland's rule throughout and frequent refactorization, used to retry
        a failed solve.  Past ``deadline`` (a :func:`time.monotonic` value,
        checked every ``DEADLINE_EVERY`` iterations) the solve ends with
        ``TIME_LIMIT``.
        """
        lo = self.default_lower if lower is None else lower
        hi = self.default_upper if upper is None else upper
        if np.any(lo > hi + 1e-12):
            return LpSolution(LpStatus.INFEASIBLE, 0)
        if max_iter is None:
            max_iter = 50 * (self.n + self.m) + 2000

        lo, hi = lo.astype(float), hi.astype(float)
        used = 0
        if not stable:
            st = None
            try:
                st = self._dual_state(lo, hi, start)
                if st is not None:
                    cap = min(max_iter, DUAL_ITER_PER_DIM * (self.n + self.m))
                    status = self._dual(st, cap, deadline)
                    if status is LpStatus.OPTIMAL:
                        raw = self._run_phases(st, max_iter, deadline, False)
                        if raw.status is not LpStatus.NUMERIC_FAILURE:
                            return raw
                    elif status is not LpStatus.ITERATION_LIMIT or cap == max_iter:
                        return LpSolution(status, st.iterations)
            except NumericalFailure:
                pass
            used = 0 if st is None else st.iterations

        st = self._init_state(lo, hi)
        st.iterations = used
        if stable:
            st.bland = True
            st.refactor_every = 20
        try:
            return self._run_phases(st, max_iter, deadline, stable)
        except NumericalFailure:
            return LpSolution(LpStatus.NUMERIC_FAILURE, st.iterations)

    def _run_phases(self, st: _State, max_iter: int, deadline: float | None,
                    stable: bool) -> LpSolution:
        if st.n_art:
            st.cost = np.zeros(self.n + self.m + st.n_art)
            st.cost[self.n + self.m:] = 1.0
            status = self._iterate(st, max_iter, deadline)
            if status in (LpStatus.ITERATION_LIMIT, LpStatus.TIME_LIMIT):
                return LpSolution(status, st.iterations)
            if status is LpStatus.UNBOUNDED:
                raise NumericalFailure("phase 1 reported unbounded")
            if st.obj > 1e-7 * self._res_scale:
                return LpSolution(LpStatus.INFEASIBLE, st.iterations)
            self._pin_artificials(st)

        st.cost = np.zeros(self.n + self.m + st.n_art)
        st.cost[:self.n] = self.c
        st.stall = 0
        st.bland = stable
        for attempt in range(VERIFY_RETRIES + 1):
            status = self._iterate(st, max_iter, deadline)
            if status is not LpStatus.OPTIMAL:
                return LpSolution(status, st.iterations)
            if self._verified_optimal(st):
                break
            if attempt == VERIFY_RETRIES:
                return LpSolution(LpStatus.NUMERIC_FAILURE, st.iterations)
            self._refactor(st)

        _, y = self._reduced_costs(st)
        xs = st.x[:self.n].copy()
        obj = float(self.c @ xs)
        nm = self.n + self.m
        basis = Basis(st.basis, st.vstat[:nm]) if np.all(st.basis < nm) else None
        return LpSolution(LpStatus.OPTIMAL, st.iterations, xs, y * self.row_scale, obj, basis)

    def _pin_artificials(self, st: _State) -> None:
        """Fix artificials to zero; pivot basic ones out where possible."""
        n, m = self.n, self.m
        st.bl[n + m:] = 0.0
        st.bu[n + m:] = 0.0
        st.x[n + m:][np.abs(st.x[n + m:]) < FEAS_EPS] = 0.0
        for pos in np.flatnonzero(st.basis >= n + m):
            j = int(st.basis[pos])
            # row of the tableau, e_pos^T Binv [A I], over candidate columns
            alpha = np.concatenate([self.at_csr @ st.binv[pos], st.binv[pos]])
            cand = np.flatnonzero((st.vstat[:n + m] != BASIC) & (st.bu[:n + m] > st.bl[:n + m])
                                  & (np.abs(alpha) > 1e-7))
            if len(cand) == 0:
                continue  # redundant row; artificial stays basic at zero
            # degenerate swap: entering keeps its current bound value
            st.vstat[j] = AT_LOWER
            st.x[j] = 0.0
            self._pivot(st, pos, int(cand[0]), self._ftran(st, int(cand[0])))


def solve_lp(model: IpModel, *, max_iter: int | None = None) -> LpSolution:
    """Solve the LP relaxation of a model as-is, with row duals.

    Integrality markers are ignored; binaries contribute their [0, 1]
    bounds.  At an optimum the solution holds the point and one dual value
    per constraint row (the sensitivity of the optimal objective to that
    row's right-hand side) as float64 arrays.
    """
    if model.num_vars < 1:
        raise ValueError("model has no variables")
    return standard_form(model).solve(max_iter=max_iter)
