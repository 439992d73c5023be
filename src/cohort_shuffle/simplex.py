"""Bounded-variable dual simplex for the LP relaxations.

The engine works on the computational form ``A x + s = b`` where every
row gets one slack column whose bounds encode the row sense (``<=`` gives
``s in [0, inf)``, ``>=`` gives ``s in (-inf, 0]``, ``=`` pins ``s`` to 0).
Nonbasic variables rest on one of their bounds.  The basis inverse is
kept explicitly, but only in part: the column of ``B^-1`` for a row whose
slack is basic is a unit vector and is never stored, so the engine keeps
just the k columns of the other rows, an m × k block.  That block is
updated by elementary row operations, gains a column when a slack leaves
the basis and loses one when a slack enters, and is rebuilt from scratch
every ``REFACTOR_EVERY`` pivots.

One algorithm solves every LP: the bounded dual simplex, with dual
steepest-edge choice of the leaving row and a long-step ratio test that
flips boxed columns to their other bound instead of entering them while
the leaving row stays infeasible.  It runs from a dual-feasible basis.  A
root LP starts from the slack basis with every structural on the bound
its cost prefers: the lower for a positive cost, the upper for a negative
one, either for a cost of 0.  That start is dual feasible when those
bounds are finite, as in every model variant, whose columns are binaries
in [0, 1] or spread, count and pairs columns in [0, inf) under a
nonnegative weight.  A branch-and-bound child starts from its parent's
optimal basis, which one bound fix leaves dual feasible.  An LP whose
start would rest a column on an infinite bound is not solved:
:meth:`SimplexEngine.solve` raises ValueError on it.  A dual-feasible
start bounds the objective from below, so a finished solve ends optimal
or infeasible.  A dual that has made as
many iterations as its LP has columns and rows is taken to stall on dual
degeneracy, where ties among zero reduced costs can make it cycle: its
nonbasic costs move once by less than the optimality tolerance, which
breaks the ties, and the true costs return for the optimum it reaches.

Every optimum of the LP itself is re-verified against primal residual
and reduced-cost sign conditions; verification failures trigger
refactorize-and-resume retries and finally an explicit numeric-failure
status rather than a wrong answer.  A deadline is read on every iteration
and ends a solve with a time-limit status once passed.

Every solve returns an :class:`LpSolution` of float64 arrays.  The engine
judges only LP points; the branch-and-bound search checks each incumbent
on the compiled rows itself.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from cohort_shuffle.ipmodel import IpModel
from cohort_shuffle.roster import FEAS_TOL

#: primal feasibility tolerance: the auditor's, so a solver point re-validates
FEAS_EPS = FEAS_TOL
OPT_EPS = 1e-7
PIVOT_EPS = 1e-9
SMALL_PIVOT = 1e-5
REFACTOR_EVERY = 100
PIVOT_CHUNK = 1 << 20  # the most doubles a pivot's rank-one update holds at once
VERIFY_RETRIES = 3

AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

INF = float("inf")


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERIC_FAILURE = "numeric_failure"
    TIME_LIMIT = "time_limit"


class NumericalFailure(RuntimeError):
    """Raised when the basis cannot be kept numerically trustworthy."""


@dataclass(frozen=True)
class LpSolution:
    """Result of one LP solve.  An optimum sets ``values`` (float64, one
    per column), ``duals`` (one per model row), ``objective`` and the
    optimal ``basis``; a solve that stops or fails leaves them None."""

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
    rows, columns = model.rows, model.variables

    counts = np.diff(rows.indptr)
    nonempty = counts > 0
    row_max = np.zeros(len(rows))
    row_max[nonempty] = np.maximum.reduceat(np.abs(rows.coefs), rows.indptr[:-1][nonempty])
    row_scale = np.ones(len(rows))
    np.divide(1.0, row_max, out=row_scale, where=row_max > 0.0)
    a_csr = sparse.csr_matrix((rows.coefs * np.repeat(row_scale, counts), rows.cols, rows.indptr),
                              shape=(len(rows), model.num_vars))
    # the slack s = rhs - A x of a row with interval [lo, hi] lies in [rhs - hi, rhs - lo]
    return SimplexEngine(columns.objective, a_csr.tocsc(), rows.rhs * row_scale,
                         rows.rhs - rows.hi, rows.rhs - rows.lo, columns.lower, columns.upper,
                         row_scale=row_scale)


@dataclass
class Basis:
    """A basis to start a solve from: the basic column of each row and the
    status of every structural and slack column.  The solve refactors it,
    which costs little: only its structural columns are inverted."""

    basis: np.ndarray
    vstat: np.ndarray


class _State:
    """Mutable per-solve state; everything on the engine stays read-only.
    The bounds are the solve's, of structural and slack columns alike, and
    so are the costs: the engine's, or perturbed ones while the dual stalls.

    ``B^-1`` is held as its stored columns: ``v[:, :k]`` (Fortran order, so
    each column is contiguous) holds the column of row ``vrow[c]`` in
    ``v[:, c]``, and ``vcol`` maps each row to its stored column, or to -1
    when the row's slack is basic and its column is the unit vector at
    that slack's position.  ``pos`` is the basis position of each basic
    column and -1 for the others."""

    __slots__ = ("bl", "bu", "cost", "x", "vstat", "basis", "v", "k", "vrow", "vcol", "pos",
                 "iterations", "pivots", "want_refactor", "fresh")

    def __init__(self, bl: np.ndarray, bu: np.ndarray, cost: np.ndarray) -> None:
        self.bl, self.bu, self.cost = bl, bu, cost
        self.iterations = 0
        self.pivots = 0
        self.want_refactor = False
        self.fresh = False


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
        self.cost = np.concatenate([c, np.zeros(self.m)])
        self.a_csc = a_csc
        self.at_csr = a_csc.T.tocsr()
        self.b = b
        self.slack_lo = slack_lo
        self.slack_hi = slack_hi
        self.default_lower = default_lower
        self.default_upper = default_upper
        self.row_scale = row_scale
        self._res_scale = 1.0 + (float(np.max(np.abs(b))) if len(b) else 0.0)

    # column j layout: [0, n) structural, [n, n+m) slack

    def _ftran(self, st: _State, j: int) -> np.ndarray:
        """``B^-1`` times column ``j``, as a new array: the stored columns of
        its rows gathered, and its other rows scattered to their slacks'
        positions."""
        if j < self.n:
            lo, hi = self.a_csc.indptr[j], self.a_csc.indptr[j + 1]
            rows, vals = self.a_csc.indices[lo:hi], self.a_csc.data[lo:hi]
        else:
            rows, vals = np.array([j - self.n]), np.ones(1)
        col = st.vcol[rows]
        kept = col >= 0
        w = st.v[:, col[kept]] @ vals[kept]
        w[st.pos[self.n + rows[~kept]]] += vals[~kept]
        return w

    def _apply(self, st: _State, rhs: np.ndarray) -> np.ndarray:
        """``B^-1 rhs`` for an m-vector ``rhs`` over the rows."""
        out = st.v[:, :st.k] @ rhs[st.vrow[:st.k]]
        unit = np.flatnonzero(st.vcol < 0)
        out[st.pos[self.n + unit]] += rhs[unit]
        return out

    def _row(self, st: _State, r: int) -> np.ndarray:
        """Row ``r`` of ``B^-1`` as an m-vector over the rows."""
        row = np.zeros(self.m)
        row[st.vrow[:st.k]] = st.v[r, :st.k]
        if st.basis[r] >= self.n:
            row[st.basis[r] - self.n] = 1.0
        return row

    def _edge_norms(self, st: _State, rows: np.ndarray) -> np.ndarray:
        """Squared norms of these rows of ``B^-1``, the dual steepest-edge
        weights: the stored part, plus 1 where a slack holds the position."""
        part = st.v[rows, :st.k]
        return np.einsum("ij,ij->i", part, part) + (st.basis[rows] >= self.n)

    def _reduced_costs(self, st: _State) -> tuple[np.ndarray, np.ndarray]:
        # a slack costs 0, so y is 0 on every row whose slack is basic
        y = np.zeros(self.m)
        y[st.vrow[:st.k]] = st.v[:, :st.k].T @ st.cost[st.basis]
        return st.cost - np.concatenate([self.at_csr @ y, y]), y

    def _refactor(self, st: _State) -> None:
        """Invert the basis through its structural block alone.

        Slack columns are unit columns.  With the rows they cover permuted
        last, ``B = [[B11, 0], [B21, I]]``, so ``B^-1 = [[B11^-1, 0],
        [-B21 B11^-1, I]]``: the columns of the k rows whose slack is
        nonbasic are ``B11^-1`` on the structural positions and ``-B21
        B11^-1`` on the slack positions, and only the k × k block ``B11`` is
        inverted.  No more than ``REFACTOR_EVERY`` pivots pass before the
        next refactor, each appending at most one column, so the store has
        room for that many more.
        """
        n, m = self.n, self.m
        unit = np.flatnonzero(st.basis >= n)
        struct = np.flatnonzero(st.basis < n)
        unit_row = st.basis[unit] - n
        rest = np.setdiff1d(np.arange(m), unit_row)
        k = len(rest)
        if k != len(struct):
            raise NumericalFailure("singular basis during refactorization")
        cols = self.a_csc[:, st.basis[struct]]
        try:
            b11_inv = np.linalg.inv(cols[rest].toarray())
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        cap = min(m, k + REFACTOR_EVERY)
        st.v = np.empty((m, cap), order="F")
        st.v[struct, :k] = b11_inv
        st.v[unit, :k] = -(cols[unit_row] @ b11_inv)
        st.k = k
        st.vrow = np.empty(cap, dtype=np.intp)
        st.vrow[:k] = rest
        st.vcol = np.full(m, -1, dtype=np.intp)
        st.vcol[rest] = np.arange(k)
        st.pos = np.full(n + m, -1, dtype=np.intp)
        st.pos[st.basis] = np.arange(m)
        st.fresh = True
        # recompute basic values from the nonbasic point to kill drift
        xn = st.x.copy()
        xn[st.basis] = 0.0
        st.x[st.basis] = self._apply(st, self.b - self.a_csc @ xn[:n] - xn[n:])

    def _pivot(self, st: _State, r: int, q: int, w: np.ndarray, every: int) -> bool:
        """Make column ``q`` basic in row ``r`` given its ftran ``w``, updating
        the stored columns by row operations and refactoring every ``every``
        pivots; True when that refactorized.

        A slack that enters leaves its column equal to ``e_r``, which is
        dropped; a slack that leaves turns its unit column ``e_r`` into
        ``-w / piv`` with ``1 / piv`` at ``r``, which is appended."""
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
        wcol = w.copy()
        wcol[r] = 0.0
        # the rank-one update over the contiguous block, one product and one
        # difference per entry (a fused multiply-add would round differently),
        # in column chunks of at most PIVOT_CHUNK entries; where the pivot row
        # is 0 an entry loses w * 0, which changes at most the sign of a zero
        block, step = v[:, :k], max(1, PIVOT_CHUNK // len(wcol))
        for a in range(0, k, step):
            block[:, a:a + step] -= np.multiply(wcol[:, None], row[None, a:a + step], order="F")
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

    def _stopped(self, st: _State, max_iter: int, deadline: float | None) -> LpStatus | None:
        if st.iterations >= max_iter:
            return LpStatus.ITERATION_LIMIT
        if deadline is not None and time.monotonic() > deadline:
            return LpStatus.TIME_LIMIT
        return None

    def _resting(self, bl: np.ndarray, bu: np.ndarray) -> np.ndarray:
        """Statuses of the slack basis: every slack basic and every
        structural on the bound its cost prefers, the lower for a positive
        cost, the upper for a negative one, and at zero the lower if finite,
        else the upper.  Raises ValueError when a preferred bound is
        infinite, as then the start is not dual feasible."""
        n, c = self.n, self.c
        eps = OPT_EPS * (1.0 + float(np.max(np.abs(c), initial=0.0)))
        up = (c < -eps) | ((c <= eps) & (bl[:n] == -INF))
        infinite = np.flatnonzero(np.isinf(np.where(up, bu[:n], bl[:n])))
        if len(infinite):
            j = int(infinite[0])
            raise ValueError(
                f"column {j} (cost {c[j]:g}, bounds [{bl[j]:g}, {bu[j]:g}]) cannot start the dual "
                "simplex: every column must rest on a finite bound its cost prefers (the lower "
                "for a positive cost, the upper for a negative one, either for cost 0)")
        return np.concatenate([np.where(up, AT_UPPER, AT_LOWER),
                               np.full(self.m, BASIC)]).astype(np.int8)

    def _state(self, bl: np.ndarray, bu: np.ndarray, basis: np.ndarray,
               vstat: np.ndarray) -> _State | None:
        """A refactored state of the LP with these bounds, from ``basis`` and
        ``vstat``; None when a nonbasic column would rest on an infinite
        bound."""
        st = _State(bl, bu, self.cost)
        st.basis, st.vstat = basis.copy(), vstat.copy()
        st.x = np.where(st.vstat == AT_UPPER, bu, bl)
        st.x[st.basis] = 0.0
        nb = st.vstat != BASIC
        if not np.all(np.isfinite(st.x[nb]) & (st.x[nb] >= bl[nb]) & (st.x[nb] <= bu[nb])):
            return None
        self._refactor(st)
        return st

    def _dual(self, st: _State, max_iter: int, deadline: float | None, stable: bool) -> LpStatus:
        """Bounded dual simplex from a dual-feasible state.

        Each iteration picks the basic variable whose bound violation is
        largest relative to its row of the inverse (dual steepest edge), or
        in ``stable`` mode the violated one of lowest column index, and
        sends it to the violated bound.  The entering column is found by
        the long-step ratio test: breakpoints are passed in ratio order, the
        larger pivot first among ties, while the leaving row stays
        infeasible, and each boxed column passed flips to its other bound
        instead of losing dual feasibility.  OPTIMAL means primal feasible,
        and the pass that finds it counts as an iteration; INFEASIBLE comes
        from a row that no move of the nonbasic columns within their bounds
        can repair, on a fresh inverse.
        """
        n, m = self.n, self.m
        movable = (st.bu - st.bl) > 0
        every = 20 if stable else REFACTOR_EVERY
        d, _ = self._reduced_costs(st)
        while True:
            stop = self._stopped(st, max_iter, deadline)
            if stop is not None:
                return stop
            if st.iterations == n + m:
                self._perturb(st)
                d, _ = self._reduced_costs(st)
            st.iterations += 1
            xb = st.x[st.basis]
            below, above = st.bl[st.basis] - xb, xb - st.bu[st.basis]
            infeas = np.maximum(below, above)
            if infeas.max(initial=0.0) <= FEAS_EPS:
                st.cost = self.cost
                return LpStatus.OPTIMAL
            bad = np.flatnonzero(infeas > FEAS_EPS)
            if not len(bad):
                raise NumericalFailure("basic values are not numbers")
            if stable:
                r = int(bad[np.argmin(st.basis[bad])])
            else:
                # edge norms of the infeasible rows alone: the others score 0
                gap = infeas[bad]
                r = int(bad[np.argmax(gap * gap / self._edge_norms(st, bad))])

            s = 1.0 if below[r] > 0 else -1.0
            leave = int(st.basis[r])
            row = self._row(st, r)
            alpha = s * np.concatenate([self.at_csr @ row, row])
            vs = st.vstat
            j = np.flatnonzero(movable & (
                ((vs == AT_LOWER) & (alpha < -PIVOT_EPS)) | ((vs == AT_UPPER) & (alpha > PIVOT_EPS))))
            ratio = np.maximum(-d[j] / alpha[j], 0.0)
            order = np.lexsort((-np.abs(alpha[j]), ratio))
            j, ratio = j[order], ratio[order]
            slope = infeas[r] - np.cumsum((st.bu[j] - st.bl[j]) * np.abs(alpha[j]))
            passed = np.flatnonzero(slope <= 0.0)
            if len(passed):
                k = int(passed[0])
            elif st.fresh and len(j) and slope[-1] <= FEAS_EPS:
                # all candidates repair the row up to rounding: enter the last
                k = len(j) - 1
            elif st.fresh:
                return LpStatus.INFEASIBLE
            else:
                self._refactor(st)
                d, _ = self._reduced_costs(st)
                continue
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
                st.x[st.basis] -= self._apply(st, self.a_csc @ dx[:n] + dx[n:])

            w = self._ftran(st, q)
            if abs(w[r] - s * alpha[q]) > 1e-6 * (1.0 + abs(w[r])):
                st.want_refactor = True  # row and column disagree: the inverse has drifted
            target = st.bl[leave] if s > 0 else st.bu[leave]
            theta = (st.x[leave] - target) / w[r]
            st.x[st.basis] -= theta * w
            st.x[q] += theta
            st.x[leave] = target
            vs[leave] = AT_LOWER if s > 0 else AT_UPPER
            if self._pivot(st, r, q, w, every):
                d, _ = self._reduced_costs(st)

    def _perturb(self, st: _State) -> None:
        """Move the cost of every nonbasic structural by a fixed pseudorandom
        0.5 to 1 times ``OPT_EPS (1 + |c|)`` toward the bound it rests on.
        Reduced costs keep their signs, and ties among them, on which a
        degenerate dual can cycle for good, break."""
        n, vs = self.n, st.vstat[:self.n]
        step = OPT_EPS * (1.0 + np.abs(self.c)) * np.random.default_rng(0).uniform(0.5, 1.0, n)
        st.cost = self.cost.copy()
        st.cost[:n] += np.where(vs == AT_LOWER, step, np.where(vs == AT_UPPER, -step, 0.0))

    def _verified_optimal(self, st: _State) -> bool:
        x = st.x
        if np.any(x < st.bl - FEAS_EPS) or np.any(x > st.bu + FEAS_EPS):
            return False
        act = self.a_csc @ x[:self.n] + x[self.n:]
        if float(np.max(np.abs(act - self.b), initial=0.0)) > FEAS_EPS * self._res_scale:
            return False
        # no nonbasic column free to move has a reduced cost of the wrong sign
        d, _ = self._reduced_costs(st)
        eps = 10 * OPT_EPS * (1.0 + float(np.max(np.abs(self.cost))))
        vs = st.vstat
        return not np.any((st.bu > st.bl) & (((vs == AT_LOWER) & (d < -eps))
                                             | ((vs == AT_UPPER) & (d > eps))))

    def solve(self, lower: np.ndarray | None = None,
              upper: np.ndarray | None = None, *,
              max_iter: int | None = None, stable: bool = False,
              start: Basis | None = None, deadline: float | None = None) -> LpSolution:
        """Solve the LP under the given variable bounds by the dual simplex.

        The dual runs from ``start``, a basis that was optimal under looser
        bounds (a branching parent's), unless one of its nonbasic columns
        would rest on an infinite bound, and otherwise from the slack basis
        with every structural on the bound its cost prefers, which must be
        finite: a column whose cost prefers an infinite bound raises
        ValueError.  ``stable`` ignores ``start``, refactors every 20 pivots
        and takes as leaving row the violated one of lowest basic column
        index, used to retry a failed solve.  An optimum that still fails
        verification after ``VERIFY_RETRIES`` refactorized resumptions, or a
        singular basis, ends the solve with ``NUMERIC_FAILURE``.  Past
        ``deadline`` (a :func:`time.monotonic` value, checked on every
        iteration) the solve ends with ``TIME_LIMIT``.
        """
        lo = self.default_lower if lower is None else lower
        hi = self.default_upper if upper is None else upper
        if np.any(lo > hi + 1e-12):
            return LpSolution(LpStatus.INFEASIBLE, 0)
        if max_iter is None:
            max_iter = 50 * (self.n + self.m) + 2000

        bl = np.concatenate([lo, self.slack_lo])
        bu = np.concatenate([hi, self.slack_hi])
        st = None
        try:
            if start is not None and not stable:
                st = self._state(bl, bu, start.basis, start.vstat)
            if st is None:
                st = self._state(bl, bu, self.n + np.arange(self.m), self._resting(bl, bu))

            for attempt in range(VERIFY_RETRIES + 1):
                status = self._dual(st, max_iter, deadline, stable)
                if status is not LpStatus.OPTIMAL:
                    return LpSolution(status, st.iterations)
                if self._verified_optimal(st):
                    break
                if attempt == VERIFY_RETRIES:
                    return LpSolution(LpStatus.NUMERIC_FAILURE, st.iterations)
                self._refactor(st)
        except NumericalFailure:
            return LpSolution(LpStatus.NUMERIC_FAILURE, 0 if st is None else st.iterations)

        _, y = self._reduced_costs(st)
        xs = st.x[:self.n].copy()
        return LpSolution(LpStatus.OPTIMAL, st.iterations, xs, y * self.row_scale,
                          float(self.c @ xs), Basis(st.basis, st.vstat))


def solve_lp(model: IpModel, *, max_iter: int | None = None) -> LpSolution:
    """Solve the LP relaxation of a model as-is, with row duals.

    Integrality markers are ignored; binaries contribute their [0, 1]
    bounds.  At an optimum the solution holds the point and one dual value
    per constraint row (the sensitivity of the optimal objective to that
    row's right-hand side) as float64 arrays.  Every column must have a
    finite bound its cost prefers (the lower for a positive cost, the upper
    for a negative one, either for cost 0), as every compiled model's
    columns do; a model with one that does not raises ValueError.
    """
    if model.num_vars < 1:
        raise ValueError("model has no variables")
    return standard_form(model).solve(max_iter=max_iter)
