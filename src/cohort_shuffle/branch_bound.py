"""Exact branch-and-bound over the built-in simplex relaxation.

Nodes are selected best-bound first from a heap, but after branching the
search plunges depth-first into the child nearest the fractional LP value
to find incumbents early; the sibling goes back on the heap.  Every node
LP but the root is a warm dual simplex re-solve from its parent's optimal
basis; a heap entry keeps that basis and its column statuses, never the
inverse.  Branching picks the most fractional binary (ties broken toward
the lowest column index).  LP values are strengthened to integer bounds
when the objective is integral (the stay-count and pairs variants), and
every incumbent is rebuilt canonically from its decoded assignment, so
reported objectives match the roster-level evaluators bit for bit.

The objective floor of the model's roster (the pigeonhole bound for the
pairs variant, 0 otherwise) participates in pruning and in the optimality
proof: an incumbent that meets it ends the search at once with a zero gap,
mirroring a by-hand optimality argument.  A status of proven optimal
always means the incumbent meets a bound derived here, the floor or the
tree's.

The LP engine is built at the first node LP, so a solve whose warm start
meets the floor never builds the standard form: every incumbent is
checked against the compiled rows with one sparse product, under the
auditor's tolerance.  A model must come from a roster: it carries that
roster, whose students the incumbents are decoded into and scored on.

The deadline reaches into each node LP, which reads the clock on every
iteration, and into the root repair's descent.  An LP stopped by it puts its node back on the heap under the
parent's bound, so a budget stop reports the incumbent with an honest
bound.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import heapq
import math
import random
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from cohort_shuffle.bounds import objective_floor, optimality_gap
from cohort_shuffle.compiler import acquainted_pairs, cohort_cells
from cohort_shuffle.heuristics import MoveEvaluator, descend
from cohort_shuffle.ipmodel import IpModel, ModelVariant, RowStore
from cohort_shuffle.roster import FEAS_TOL, Assignment, assignment_objective, score_sums
from cohort_shuffle.simplex import Basis, LpStatus, NumericalFailure, SimplexEngine, standard_form

INT_EPS = 1e-6
#: slack subtracted before bound strengthening, absorbing simplex tolerance
CEIL_SLACK = 1e-4
CONT_SLACK = 1e-7


class SolveStatus(enum.Enum):
    PROVEN_OPTIMAL = "proven_optimal"
    FEASIBLE_GAP = "feasible_gap"
    INFEASIBLE = "infeasible"
    TIME_LIMIT_NO_SOLUTION = "time_limit_no_solution"


class DecodeError(ValueError):
    """An x vector does not encode one company per student."""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for one exact solve.

    ``warm_start`` seeds the incumbent with a known assignment: one that
    leaves out a student or names a company outside ``[0, |C|)`` raises
    ValueError, and one that violates the model rows is silently skipped.
    ``node_limit`` and ``time_limit_s`` stop the search early with the best
    incumbent found.  Node LPs run under the simplex engine's own iteration
    cap.  ``workers`` is accepted and ignored: the search runs on one
    thread, so every run is bit-deterministic for any value.
    """

    time_limit_s: float | None = None
    workers: int = 1
    seed: int = 0
    warm_start: Assignment | None = None
    node_limit: int | None = None


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    lp_iterations: int
    wall_time_s: float


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a branch-and-bound run; ``primal`` is the incumbent's
    canonical point as a read-only float64 array."""

    status: SolveStatus
    assignment: Assignment | None
    objective: float | None
    bound: float
    stats: SolveStats
    primal: np.ndarray | None

    @property
    def gap(self) -> float | None:
        """The objective's :func:`~cohort_shuffle.bounds.optimality_gap` from
        the bound, in percent; None without an incumbent."""
        return None if self.objective is None else optimality_gap(self.objective, self.bound)

    @property
    def proven_optimal(self) -> bool:
        return self.status is SolveStatus.PROVEN_OPTIMAL


def decode_assignment(model: IpModel, primal) -> Assignment:
    """Read the student-to-company map out of an integral x vector."""
    if model.roster is None:
        raise DecodeError("model carries no roster to decode students with")
    ids = [s.id for s in model.roster.students]
    n_c = model.roster.num_companies
    x = np.asarray(primal, dtype=float)[:len(ids) * n_c].reshape(len(ids), n_c)
    ones = x >= 1.0 - INT_EPS
    fractional = ((x > INT_EPS) & ~ones).any(axis=1)
    for i in np.flatnonzero((ones.sum(axis=1) != 1) | fractional):
        if ones[i].sum() != 1:
            raise DecodeError(f"student {ids[i]!r} has {ones[i].sum()} active assignment columns")
        raise DecodeError(f"student {ids[i]!r} has fractional assignment values")
    return dict(zip(ids, ones.argmax(axis=1).tolist()))


def _pair_index(model: IpModel) -> np.ndarray:
    """The roster's acquainted pairs as a (pairs, 2) array of student
    indices, in the order of a paper-form model's co-location columns."""
    return np.array(acquainted_pairs(model.roster), dtype=np.int64).reshape(-1, 2)


def _is_compact(model: IpModel) -> bool:
    """Whether a pairs model is in the compact form: it has cohort columns."""
    return any(prefix == "n" for _, (prefix,), _, _ in model.variables.blocks)


def _canonical_point(model: IpModel, asg: np.ndarray,
                     pairs: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Exact point and objective for an assignment, extras included.

    The objective is :func:`~cohort_shuffle.roster.assignment_objective` on
    the model's roster, the one ``certify`` recomputes.  Spread variables
    become the realized absolute differences of the roster's ``score_sums``.
    In a paper-form pairs model, co-location variables become the 0/1
    indicators of its acquainted pairs, ``pairs`` from :func:`_pair_index`,
    built here when not given; in a compact one, each cell's ``n`` becomes
    the number of its cohort in its company and ``w`` the pairs among them.
    """
    roster = model.roster
    n_c = roster.num_companies
    asg = np.asarray(asg, dtype=np.int64)
    x = np.zeros(model.num_vars)
    x[np.arange(len(asg)) * n_c + asg] = 1.0
    extra = x[len(asg) * n_c:]
    mapping = dict(zip([s.id for s in roster.students], asg.tolist()))
    if model.variant is ModelVariant.MERIT_DEVIATION:
        sums = [np.array(score_sums(roster, mapping, metric)) for metric in ("aom", "mom")]
        c, c2 = np.array([(c, c2) for c in range(n_c) for c2 in range(n_c) if c2 != c]).T
        extra[:] = np.abs(np.concatenate([s[c] - s[c2] for s in sums]))
    elif model.variant is ModelVariant.MIN_PAIRS and _is_compact(model):
        new, prev = np.array(cohort_cells(roster), dtype=np.int64).reshape(-1, 2).T
        old = np.array([s.old_company for s in roster.students])
        count = np.bincount(asg * n_c + old, minlength=n_c * n_c)[new * n_c + prev]
        extra[:] = np.concatenate([count, count * (count - 1) // 2])
    elif model.variant is ModelVariant.MIN_PAIRS:
        if pairs is None:
            pairs = _pair_index(model)
        extra[:] = asg[pairs[:, 0]] == asg[pairs[:, 1]]
    return x, assignment_objective(roster, mapping, model.variant)


def _rows_hold(rows: RowStore, x: np.ndarray) -> bool:
    """Whether a point satisfies every row within ``FEAS_TOL``, the
    tolerance the auditor and the move evaluator judge a row by."""
    act = sparse.csr_matrix((rows.coefs, rows.cols, rows.indptr), shape=(len(rows), len(x))) @ x
    return bool(np.all(act - rows.hi <= FEAS_TOL) and np.all(rows.lo - act <= FEAS_TOL))


class _Search:
    def __init__(self, model: IpModel, opts: SolveOptions) -> None:
        self.model = model
        self.opts = opts
        self.integral_obj = model.variant in (ModelVariant.MIN_SAME_COMPANY,
                                              ModelVariant.MIN_PAIRS)
        self.n_c = model.roster.num_companies
        self.n_students = len(model.roster.students)
        self.floor = objective_floor(model.roster, model.variant)

        self.impr_eps = (1.0 - 1e-6) if self.integral_obj else 1e-9
        self.heap: list[tuple[float, int, tuple[tuple[int, int], ...], Basis | None]] = []
        self.seq = 0
        self.inc_obj: float | None = None
        self.inc_asg: np.ndarray | None = None
        self.inc_x: np.ndarray | None = None
        self.nodes = 0
        self.lp_iters = 0
        self.deadline = (time.monotonic() + opts.time_limit_s
                         if opts.time_limit_s is not None else None)

    @functools.cached_property
    def engine(self) -> SimplexEngine:
        """The LP engine, built at the first node LP."""
        return standard_form(self.model)

    @functools.cached_property
    def pairs(self) -> np.ndarray | None:
        """A paper-form pairs model's co-location pairs, listed at the first
        incumbent."""
        model = self.model
        return (_pair_index(model) if model.variant is ModelVariant.MIN_PAIRS
                and not _is_compact(model) else None)

    @functools.cached_property
    def binary_cols(self) -> np.ndarray:
        """The columns a node LP branches on, listed at the first one."""
        return np.array(self.model.binary_columns(), dtype=np.int64)

    # --- incumbent handling -------------------------------------------------

    def _warm_point(self, warm: Assignment) -> np.ndarray:
        """The warm start as a company per student index."""
        students = self.model.roster.students
        for s in students:
            if warm.get(s.id) not in range(self.n_c):
                raise ValueError(f"warm start has {warm.get(s.id)!r} for student {s.id!r}, "
                                 f"not a company in [0, {self.n_c})")
        return np.array([warm[s.id] for s in students], dtype=np.int64)

    def _try_incumbent(self, asg: np.ndarray) -> None:
        """Canonicalize, check against the rows, and keep if improving."""
        x, obj = _canonical_point(self.model, asg, self.pairs)
        if not _rows_hold(self.model.rows, x):
            return
        if self.inc_obj is None or obj < self.inc_obj - 1e-12:
            self.inc_obj, self.inc_asg, self.inc_x = obj, asg, x

    def _cutoff(self) -> float:
        return math.inf if self.inc_obj is None else self.inc_obj - self.impr_eps

    def _proved(self, glb: float) -> bool:
        """The incumbent meets the lower bound ``glb``, so it is optimal."""
        return self.inc_obj is not None and self.inc_obj - glb <= self.impr_eps

    def _out_of_budget(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            return True
        return self.opts.node_limit is not None and self.nodes >= self.opts.node_limit

    # --- node machinery -----------------------------------------------------

    def _materialize(self, fixes: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
        lo = self.engine.default_lower.copy()
        hi = self.engine.default_upper.copy()
        for col, val in fixes:
            lo[col] = hi[col] = float(val)
        return lo, hi

    def _strengthen(self, lp_obj: float) -> float:
        if self.integral_obj:
            return float(math.ceil(lp_obj - CEIL_SLACK))
        return lp_obj - CONT_SLACK * (1.0 + abs(lp_obj))

    def _rounded(self, x: np.ndarray) -> np.ndarray:
        """The company with the largest x value, per student."""
        n, n_c = self.n_students, self.n_c
        return x[:n * n_c].reshape(n, n_c).argmax(axis=1)

    def _round_and_repair(self, x: np.ndarray) -> None:
        """Root heuristic: round the relaxation to the nearest assignment, descend
        from it over the x-block rows down to the floor, and offer a feasible
        end point as an incumbent."""
        ev = MoveEvaluator(self.model)
        ev.load(self._rounded(x))
        descend(ev, random.Random(self.opts.seed), 10 * self.n_students, self.floor,
                deadline=self.deadline)
        if ev.violation == 0.0:
            self._try_incumbent(np.array(ev.asg, dtype=np.int64))

    def _plunge(self, bound: float, fixes: tuple[tuple[int, int], ...],
                start: Basis | None, at_root: bool) -> None:
        """Dive from one node, pushing siblings while descending.

        Each LP but the root's starts from its parent's optimal basis.  An LP
        that fails numerically or hits the engine's iteration cap is solved
        once more in the engine's stable mode, with both runs' iterations
        counted.  An LP stopped by the deadline puts its node back on the
        heap under the parent's bound.
        """
        eng = self.engine
        while True:
            lo, hi = self._materialize(fixes)
            raw = eng.solve(lo, hi, start=start, deadline=self.deadline)
            if raw.status in (LpStatus.NUMERIC_FAILURE, LpStatus.ITERATION_LIMIT):
                retry = eng.solve(lo, hi, stable=True, deadline=self.deadline)
                raw = dataclasses.replace(retry, iterations=retry.iterations + raw.iterations)
            self.lp_iters += raw.iterations
            if raw.status is LpStatus.TIME_LIMIT:
                self.seq += 1
                heapq.heappush(self.heap, (bound, self.seq, fixes, start))
                return
            self.nodes += 1
            if raw.status is LpStatus.INFEASIBLE:
                return
            if raw.status is not LpStatus.OPTIMAL:
                raise NumericalFailure(f"node LP ended with status {raw.status.value}")
            node_bound = self._strengthen(raw.objective)
            if node_bound >= self._cutoff():
                return
            if at_root:
                self._round_and_repair(raw.values)
                at_root = False
                if node_bound >= self._cutoff() or self._proved(self.floor):
                    return

            xb = raw.values[self.binary_cols]
            frac = np.abs(xb - np.round(xb))
            cand = np.nonzero(frac > INT_EPS)[0]
            if len(cand) == 0:
                self._try_incumbent(self._rounded(raw.values))
                return

            pick = cand[np.argmin(np.abs(xb[cand] - 0.5))]
            col = int(self.binary_cols[pick])
            near = int(round(float(xb[pick])))
            bound, start = node_bound, raw.basis
            self.seq += 1
            heapq.heappush(self.heap, (bound, self.seq, fixes + ((col, 1 - near),), start))
            fixes = fixes + ((col, near),)
            if self._out_of_budget():
                return

    # --- driver -------------------------------------------------------------

    def _search(self) -> bool:
        """Best-bound search until the heap empties or the incumbent is
        proved; True when a budget stopped it.  A node whose bound proves the
        incumbent stays on the heap."""
        while not self._out_of_budget():
            if not self.heap:
                return False
            glb = max(self.heap[0][0], self.floor)
            if self.inc_obj is not None and (glb >= self._cutoff() or self._proved(glb)):
                return False
            bound, _, fixes, start = heapq.heappop(self.heap)
            self._plunge(bound, fixes, start, at_root=self.nodes == 0)
        return True

    def run(self) -> SolveResult:
        t0 = time.monotonic()
        opts = self.opts

        if opts.warm_start is not None:
            self._try_incumbent(self._warm_point(opts.warm_start))

        budget = False
        if not self._proved(self.floor):
            self.heap = [(self.floor, 0, (), None)]
            budget = self._search()

        stats = SolveStats(self.nodes, self.lp_iters, time.monotonic() - t0)
        glb = max(self.floor, self.heap[0][0]) if self.heap else math.inf
        inc = self.inc_obj
        if inc is None:
            status = SolveStatus.TIME_LIMIT_NO_SOLUTION if budget else SolveStatus.INFEASIBLE
            return SolveResult(status, None, None, glb, stats, None)

        glb = min(glb, inc)
        bound = inc if not budget and inc - glb <= self.impr_eps else glb
        status = (SolveStatus.PROVEN_OPTIMAL if inc - bound <= self.impr_eps
                  else SolveStatus.FEASIBLE_GAP)
        assignment = dict(zip([s.id for s in self.model.roster.students], self.inc_asg.tolist()))
        self.inc_x.setflags(write=False)
        return SolveResult(status, assignment, inc, bound, stats, self.inc_x)


def solve_ip(model: IpModel, opts: SolveOptions | None = None) -> SolveResult:
    """Solve a model compiled from a roster to proven optimality (or a
    budgeted incumbent).  Raises ValueError on a model not compiled from a
    roster, on one with a negative cost, whose objective can fall below the
    roster's floor, and on a warm start that leaves out a student or names
    a company outside ``[0, |C|)``."""
    if model.num_vars < 1:
        raise ValueError("model has no variables")
    if model.roster is None:
        raise ValueError("model carries no roster: compile it from one")
    if np.any(model.variables.objective < 0.0):
        raise ValueError("model has a negative cost: its roster's objective weights "
                         "must be nonnegative")
    return _Search(model, opts or SolveOptions()).run()
