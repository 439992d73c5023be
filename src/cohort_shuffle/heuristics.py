"""Constructive and local-search heuristics for warm starts.

``cyclic_deal`` round-robins every previous company's students over the
other companies; with the companies' sizes between ``|C|`` and
``2(|C|-1)`` it realizes the pigeonhole bound on forced pairs exactly,
which makes it an optimality witness on balanced instances.
``rotate_within_battalions`` moves companies wholesale, preserving every
per-company statistic of a feasible previous assignment.  ``local_search``
runs :func:`descend`, the one local search, from any start, feasible or
not, down to the variant's objective floor; the warm start builds one
:class:`MoveEvaluator` from the compiled model and loads each candidate
start into it, every descent scanning the one relocation order the
evaluator shuffled, and the branch-and-bound root heuristic runs the same
descent from the rounded relaxation.  The evaluator builds only what a
descent reads: a load is one sparse product, and a column's rows become a
list when a move first reads them.  Once the assignment is feasible, the
descent skips any move a row rejected while that row's activity and the
moving students' companies are unchanged: such a move would be rejected
again, so skipping it changes no decision.  The evaluator reads a move's
objective change before any row work, from the cohort matrix for ``min``
and ``pairs`` and from the sorted company sums for ``dev``, and rejects at
once the moves that cannot lower (violation, objective); ``dev`` reads it
after the rows for a relocation from a feasible assignment, whose rows
reject most such moves and feed the memo.  Every verdict is the one the
full row check and objective recompute would give.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from collections import deque
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from cohort_shuffle.bounds import objective_floor
from cohort_shuffle.compiler import compile_model
from cohort_shuffle.ipmodel import IpModel, ModelVariant
from cohort_shuffle.roster import FEAS_TOL, Assignment, Roster, deviation_from_sums

#: violation and objective changes within this count as no change
EPS = 1e-9

#: one move: (student index, destination company)
Move = tuple[int, int]

# bound once: on CPython 3.11 each read of an enum member off its class takes
# about 0.15 us, and a move rejected on its objective made three of them
MIN, DEV = ModelVariant.MIN_SAME_COMPANY, ModelVariant.MERIT_DEVIATION


def cyclic_deal(roster: Roster) -> Assignment:
    """Deal each previous company's students over the other companies.

    The k-th student (input order) of company ``o`` goes to company
    ``(o + 1 + (k mod (|C|-1))) mod |C|``: one pass hands a company's
    first ``|C|-1`` students to distinct targets, and each wrap-around
    pass doubles up targets one by one, creating exactly
    ``max(0, n - (|C|-1))`` same-destination pairs per company while
    ``n <= 2(|C|-1)``.  Side constraints are ignored; nobody stays put.
    """
    n_c = roster.num_companies
    if n_c < 2:
        raise ValueError("dealing needs at least 2 companies")
    seen = [0] * n_c
    out: Assignment = {}
    for s in roster.students:
        o = s.old_company
        k = seen[o]
        seen[o] = k + 1
        out[s.id] = (o + 1 + (k % (n_c - 1))) % n_c
    return out


def rotate_within_battalions(roster: Roster, shift: int = 1) -> Assignment:
    """Send every company's students wholesale to another company of the
    same battalion.

    Company contents move as blocks, so each new company inherits exactly
    the composition of one previous company: a feasible previous
    assignment stays feasible, and with a shift that moves every company
    (any shift not divisible by the battalion size) nobody stays put.
    """
    out: Assignment = {}
    target = {}
    for group in roster.battalions:
        members = sorted(group)
        for pos, c in enumerate(members):
            target[c] = members[(pos + shift) % len(members)]
    for s in roster.students:
        out[s.id] = target[s.old_company]
    return out


class MoveEvaluator:
    """Row violation and objective of one assignment, updated per move.

    Built from a compiled model: its x-block rows
    ``model.rows[:model.x_rows]`` and the students of ``model.roster``.
    :meth:`load` sets the assignment, so one evaluator serves any number of
    starts, and :meth:`relocation_order` shuffles their relocations once.  A
    row over one student's columns keeps a coefficient per company; every
    other row lies within one company and sits in ``shared``, a scipy CSC
    matrix.  :meth:`load` reads row activities off it with one product, and
    ``columns[k]`` becomes column ``k``'s list of (row, coefficient) pairs
    the first time a move reads it, so a move costs O(touched rows) and
    neither a build nor a load makes an object per entry.  ``violation``
    sums how far rows miss their bounds beyond ``FEAS_TOL``, as
    ``check_feasible`` counts them, and is exactly 0.0 when none does.  The
    same shared entries row by row, ``row_ptr`` and ``row_cols`` (int32
    arrays), keep ``hot[k]``, the number of violated shared rows over column
    ``k``, current when a row's violation starts or ends.  The objective
    comes from the (new, old) cohort matrix (stays are its diagonal) or the
    per-company aom/mom sums; for ``dev``, ``sum_index`` keeps each metric's
    sums sorted, with prefix sums and every company's Σ_e |S_c − S_e|, so a
    move's objective change takes two bisects per metric
    (:meth:`_deviation_change`).
    """

    def __init__(self, model: IpModel) -> None:
        roster, rows, self.variant = model.roster, model.rows[:model.x_rows], model.variant
        students = roster.students
        self.ids = [s.id for s in students]
        self.n = n = len(students)
        self.n_c = n_c = roster.num_companies
        self.old = [s.old_company for s in students]
        self.scores = ([s.aom for s in students], [s.mom for s in students])
        self.weights = (roster.aom_weight, roster.mom_weight)
        self.lo, self.hi = rows.lo.tolist(), rows.hi.tolist()
        # per-entry temporaries stay int32 or bool: an int64 per entry would
        # cost 3.6 MB at full scale, each
        counts = np.diff(rows.indptr)
        filled = np.flatnonzero(counts)
        starts = rows.indptr[filled]
        student = rows.cols // n_c
        own = np.zeros(len(rows), dtype=bool)
        own[filled] = (np.minimum.reduceat(student, starts)
                       == np.maximum.reduceat(student, starts))
        # rows over one student's columns: a coefficient per company, summed
        # in entry order as the rows list them
        own_rows = np.flatnonzero(own)
        in_own = np.repeat(own, counts)
        per_company = np.zeros((len(own_rows), n_c))
        np.add.at(per_company, (np.repeat(np.arange(len(own_rows)), counts[own_rows]),
                                rows.cols[in_own] % n_c), rows.coefs[in_own])
        self.student_rows: list[list[tuple[int, list[float]]]] = [[] for _ in range(n)]
        for r, i, coefs in zip(own_rows.tolist(), student[rows.indptr[own_rows]].tolist(),
                               per_company.tolist()):
            self.student_rows[i].append((r, coefs))
        # kept as arrays: a list of Python ints here would add about 15 MB at
        # full scale, on top of the peak
        keep = ~in_own & (rows.coefs != 0.0)
        self.row_ptr, self.row_cols = np.zeros(len(rows) + 1, dtype=np.int32), rows.cols[keep]
        self.row_ptr[1:][filled] = np.add.reduceat(keep, starts, dtype=np.int32)
        np.cumsum(self.row_ptr, out=self.row_ptr)
        self.shared = sparse.csr_matrix((rows.coefs[keep], self.row_cols, self.row_ptr),
                                        shape=(len(rows), n * n_c)).tocsc()
        self.columns: list[list[tuple[int, float]] | None] = [None] * (n * n_c)
        self._relocations: tuple | None = None
        # deviation_from_sums adds |C|(|C|-1) terms, each rounded once, whose
        # total is at most 2|C| Σ_c |S_c|, so its float lies within
        # 2|C|^3 2^-53 Σ_c |S_c| of the exact value.  Twice that (the values
        # before and after a move) plus the O(|C| 2^-53 Σ_c |S_c|) rounding
        # of the sorted-sum delta stays below 1e-15 |C|^3 per unit of
        # w Σ_c |S_c|: a bound of 1e-12 |C|^3 leaves a thousandfold margin
        self._rounding = 1e-12 * n_c ** 3

    def load(self, asg: Sequence[int]) -> None:
        """Make ``asg`` (company per student index) the current assignment."""
        n_c = self.n_c
        self.asg = [int(c) for c in asg]
        self.cohort = [[0] * n_c for _ in range(n_c)]
        self.sums = ([0.0] * n_c, [0.0] * n_c)
        x = np.zeros(self.n * n_c)
        x[np.arange(self.n) * n_c + self.asg] = 1.0
        # CSC adds each row's entries in column order, which is student order,
        # and with a 0/1 x every product is exact
        self.act = (self.shared @ x).tolist()
        for i, c in enumerate(self.asg):
            for r, coefs in self.student_rows[i]:
                self.act[r] += coefs[c]
            self.cohort[c][self.old[i]] += 1
            for sums, score in zip(self.sums, self.scores):
                sums[c] += score[i]
        self.viol = [self._excess(r, x) for r, x in enumerate(self.act)]
        self.bad = sum(1 for v in self.viol if v > 0.0)
        violated = np.repeat(np.array(self.viol) > 0.0, np.diff(self.row_ptr))
        self.hot = np.bincount(self.row_cols[violated], minlength=self.n * n_c).tolist()
        self.violation = math.fsum(self.viol)
        self.sum_index = None
        if self.variant is MIN:
            self.objective = float(sum(self.cohort[c][c] for c in range(n_c)))
        elif self.variant is DEV:
            self.objective = deviation_from_sums(*self.sums, *self.weights)
            self._index_sums()
        else:
            self.objective = float(sum(k * (k - 1) // 2 for row in self.cohort for k in row))

    def _index_sums(self) -> None:
        """Per metric: the company sums sorted, their prefix sums, each
        company's Σ_e |S_c − S_e| and Σ_c |S_c|; built anew, never updated
        in place."""
        index = []
        for sums in self.sums:
            srt = sorted(sums)
            pre = [0.0, *accumulate(srt)]
            n, top = len(srt), pre[-1]
            # Σ_e |x − S_e| with k of the S_e below x: x(2k − n) + P_n − 2 P_k
            spread = [x * (2 * k - n) + top - 2 * pre[k]
                      for x in sums for k in (bisect_left(srt, x),)]
            index.append((srt, pre, spread, math.fsum(map(abs, sums))))
        self.sum_index = tuple(index)

    def relocation_order(self, rng: random.Random) -> list[int]:
        """Every relocation ``i * n_c + dst`` in the order ``rng`` shuffles
        them into, leaving ``rng`` as that shuffle does.  The last order is
        kept with the generator states before and after it, so descents from
        equally seeded generators draw it once.  Callers must not mutate it."""
        state = rng.getstate()
        if self._relocations is None or self._relocations[0] != state:
            order = list(range(self.n * self.n_c))
            rng.shuffle(order)
            self._relocations = (state, order, rng.getstate())
        rng.setstate(self._relocations[2])
        return self._relocations[1]

    def _column(self, k: int) -> list[tuple[int, float]]:
        """(row, coefficient) of column ``k`` over the shared rows, listed on
        first read."""
        column = self.columns[k]
        if column is None:
            a, b = self.shared.indptr[k:k + 2]
            column = self.columns[k] = list(zip(self.shared.indices[a:b].tolist(),
                                                self.shared.data[a:b].tolist()))
        return column

    def _excess(self, r: int, x: float) -> float:
        e = max(self.lo[r] - x, x - self.hi[r])
        return e if e > FEAS_TOL else 0.0

    def _row_deltas(self, moves: Sequence[Move]) -> list[tuple[int, float]]:
        """Activity change of every row the moves touch, each row once."""
        n_c, asg, column = self.n_c, self.asg, self._column
        if len(moves) == 1 and moves[0][1] != asg[moves[0][0]]:
            # a relocation's two columns share no row
            ((i, dst),) = moves
            out = [(r, -a) for r, a in column(i * n_c + asg[i])]
            out += column(i * n_c + dst)
        else:
            d: dict[int, float] = {}
            for i, dst in moves:
                for r, a in column(i * n_c + asg[i]):
                    d[r] = d.get(r, 0.0) - a
                for r, a in column(i * n_c + dst):
                    d[r] = d.get(r, 0.0) + a
            out = list(d.items())
        for i, dst in moves:
            for r, per_company in self.student_rows[i]:
                if per_company[dst] != per_company[asg[i]]:
                    out.append((r, per_company[dst] - per_company[asg[i]]))
        return out

    def _deviation_change(self, moves: Sequence[Move]) -> tuple[float, float] | None:
        """The change a relocation or a swap makes to the ``dev`` objective,
        and a bound on how far it may lie from the difference of the two
        ``deviation_from_sums`` values; None for any other move list.

        Either move takes one score step from company ``a`` to ``b``, so
        only pairs with ``a`` or ``b`` change.  Σ_e |x − S_e| over all
        companies at each moved sum ``x`` is one bisect into the sorted
        sums; the terms of ``a`` and ``b`` against each other are put right
        one by one.
        """
        asg = self.asg
        if len(moves) == 1:
            ((i, b),) = moves
            a, j = asg[i], -1
        elif len(moves) == 2:
            (i, b), (j, back) = moves
            a = asg[i]
            if asg[j] != b or back != a:
                return None
        else:
            return None
        if a == b:
            return None
        change = bound = 0.0
        n = self.n_c
        for sums, score, (srt, pre, spread, absolute), w in zip(
                self.sums, self.scores, self.sum_index, self.weights):
            sa, sb = sums[a], sums[b]
            # the floats _objective_after makes
            if j < 0:
                na, nb = sa - score[i], sb + score[i]
            else:
                na, nb = sa - score[i] + score[j], sb + score[i] - score[j]
            ka, kb = bisect_left(srt, na), bisect_left(srt, nb)
            da, db = abs(na - sa), abs(nb - sb)
            # half the change over ordered pairs: Σ_e |x − S_e| at the moved
            # sums (as in _index_sums) less their terms against a and b, less
            # the old spreads of a and b, then a against b
            change += w * (na * (2 * ka - n) + nb * (2 * kb - n) + 2 * (pre[n] - pre[ka] - pre[kb])
                           - da - db - abs(na - sb) - abs(nb - sa) - spread[a] - spread[b]
                           + abs(na - nb) + abs(sa - sb))
            bound += w * (absolute + da + db)
        return 2.0 * change, self._rounding * bound

    def _deviation_holds(self, moves: Sequence[Move]) -> bool:
        """Whether the ``dev`` objective surely does not fall by more than
        ``EPS``: the delta is above ``-EPS`` by more than its rounding bound."""
        screened = self._deviation_change(moves)
        return screened is not None and screened[0] - screened[1] > -EPS

    def _objective_after(self, moves: Sequence[Move]) -> float:
        asg, old = self.asg, self.old
        if self.variant is DEV:
            sums = [list(s) for s in self.sums]
            for i, dst in moves:
                for cand, score in zip(sums, self.scores):
                    cand[asg[i]] -= score[i]
                    cand[dst] += score[i]
            return deviation_from_sums(*sums, *self.weights)
        if self.variant is MIN:
            stays = 0  # the change on the diagonal of the (new, old) cohort matrix
            for i, dst in moves:
                stays += (dst == old[i]) - (asg[i] == old[i])
            return self.objective + stays
        # a relocation takes one from cell (src, o) of k, losing k - 1 pairs,
        # and adds one to (dst, o) of k, gaining k; two relocations of students
        # from different previous companies touch four cells, and their gains add
        cohort = self.cohort
        if len(moves) in (1, 2):
            (i, di), (j, dj) = moves[0], moves[-1]
            if di != asg[i] and dj != asg[j] and (len(moves) == 1 or old[i] != old[j]):
                gained = cohort[di][old[i]] - cohort[asg[i]][old[i]] + 1
                if len(moves) == 2:
                    gained += cohort[dj][old[j]] - cohort[asg[j]][old[j]] + 1
                return self.objective + gained
        # count changes of the cohort cells; one of k that changes by dk
        # gains dk(2k + dk - 1)/2 pairs
        change: dict[tuple[int, int], int] = {}
        for i, dst in moves:
            change[asg[i], old[i]] = change.get((asg[i], old[i]), 0) - 1
            change[dst, old[i]] = change.get((dst, old[i]), 0) + 1
        return self.objective + sum(dk * (2 * cohort[c][o] + dk - 1) // 2
                                    for (c, o), dk in change.items())

    def _violation_after(self, deltas: list[tuple[int, float]]) -> tuple[float, int]:
        total, bad, act, viol = self.violation, self.bad, self.act, self.viol
        lo, hi = self.lo, self.hi
        for r, da in deltas:
            # _excess inlined, as this loop is most of a repair move's cost; a
            # row within bounds before and after adds nothing
            x = act[r] + da
            if x - hi[r] > FEAS_TOL or lo[r] - x > FEAS_TOL:
                total += max(lo[r] - x, x - hi[r]) - viol[r]
                bad += viol[r] == 0.0
            elif viol[r]:
                total -= viol[r]
                bad -= 1
        return (total if bad else 0.0), bad

    def apply(self, moves: Sequence[Move]) -> None:
        """Make ``moves`` whatever they do to violation and objective."""
        deltas = self._row_deltas(moves)
        self._commit(moves, deltas, *self._violation_after(deltas), self._objective_after(moves))

    def _touches_violated(self, moves: Sequence[Move]) -> bool:
        """Whether the moves change a violated row's activity, or may:
        a shared row through the violated-row count ``hot`` of the columns
        they leave and enter, a per-student row directly."""
        n_c, asg, hot, viol = self.n_c, self.asg, self.hot, self.viol
        for i, dst in moves:
            src = asg[i]
            if hot[i * n_c + src] or hot[i * n_c + dst]:
                return True
            for r, per_company in self.student_rows[i]:
                if viol[r] > 0.0 and per_company[dst] != per_company[src]:
                    return True
        return False

    def try_moves(self, moves: Sequence[Move]) -> bool:
        """Make ``moves`` if they lower (violation, objective)
        lexicographically; report whether they did.

        The objective comes first, and moves that leave it no lower are
        rejected before any row work when the assignment is feasible or they
        touch no violated row: rows within bounds can only add violation,
        and the violated ones stay as they are.  For ``dev`` the screen is
        :meth:`_deviation_holds`, and a move it passes gets the exact
        ``deviation_from_sums`` value; a ``dev`` relocation from a feasible
        assignment meets its rows first, since those reject most of them.

        ``blocked`` is left at the row that rejected them when the
        assignment is feasible and they would push a row past its bounds,
        and at None otherwise; a move rejected because the objective would
        not fall leaves None whatever it does to the rows, unless it is a
        ``dev`` relocation from a feasible assignment, whose rows come first.
        """
        self.blocked = None
        obj = None
        # flat: the objective surely does not fall
        if self.variant is not DEV:
            obj = self._objective_after(moves)
            flat = obj >= self.objective - EPS
        else:
            flat = (self.bad or len(moves) > 1) and self._deviation_holds(moves)
        if flat and not (self.bad and self._touches_violated(moves)):
            return False
        deltas = self._row_deltas(moves)
        if self.bad:
            total, bad = self._violation_after(deltas)
            if total > self.violation + EPS or (flat and total >= self.violation - EPS):
                return False
        else:
            # feasible now: the first row the moves violate rejects them
            act, lo, hi = self.act, self.lo, self.hi
            for r, da in deltas:
                x = act[r] + da
                if x - hi[r] > FEAS_TOL or lo[r] - x > FEAS_TOL:
                    self.blocked = r
                    return False
            if self.variant is DEV and len(moves) == 1 and self._deviation_holds(moves):
                return False
            total, bad = 0.0, 0
        if obj is None:
            obj = self._objective_after(moves)
        if total >= self.violation - EPS and obj >= self.objective - EPS:
            return False
        self._commit(moves, deltas, total, bad, obj)
        return True

    def _commit(self, moves: Sequence[Move], deltas: list[tuple[int, float]],
                total: float, bad: int, obj: float) -> None:
        act, viol, hot, row_ptr = self.act, self.viol, self.hot, self.row_ptr
        for r, da in deltas:
            was = viol[r] > 0.0
            act[r] += da
            viol[r] = self._excess(r, act[r])
            if (viol[r] > 0.0) != was:
                step = -1 if was else 1
                for k in self.row_cols[row_ptr[r]:row_ptr[r + 1]].tolist():
                    hot[k] += step
        self.violation, self.bad, self.objective = total, bad, obj
        for i, dst in moves:
            src, o = self.asg[i], self.old[i]
            self.cohort[src][o] -= 1
            self.cohort[dst][o] += 1
            for sums, score in zip(self.sums, self.scores):
                sums[src] -= score[i]
                sums[dst] += score[i]
            self.asg[i] = dst
        if self.variant is DEV:
            self._index_sums()


def _take_first(order: deque[int], take: Callable[[int], bool]) -> bool:
    """Whether ``take`` accepts an entry; ``order`` then resumes after it."""
    for k, entry in enumerate(order):
        if take(entry):
            order.rotate(-k - 1)
            return True
    return False


def descend(ev: MoveEvaluator, rng: random.Random, budget: int, floor: float, *,
            deadline: float | None = None) -> None:
    """First-improvement descent over relocate and swap moves.

    Relocations are scanned in one seeded order, cyclically from just after
    the last accepted one, and a move is taken when it lowers (violation,
    objective); only when a whole cycle finds none are swaps scanned the
    same way, in their own seeded order built on first need.  Stops at a
    local optimum, after ``budget`` accepted moves, once the assignment is
    feasible with its objective at ``floor``, a lower bound no move can
    beat, or once ``time.monotonic()`` passes ``deadline``, read before
    each move.  From a feasible start every accepted move keeps it feasible.

    A move rejected by a row while the assignment is feasible is skipped
    until that row's activity or a moving student's company changes: the
    row's activity change depends only on those companies, so the same
    float would break the same bound again.  The descent never returns to
    infeasible, so the skip changes no decision.
    """
    n, n_c, asg, act = ev.n, ev.n_c, ev.asg, ev.act
    # per relocation: the row that rejected it, that row's activity and the
    # student's company at the time
    rel_row, rel_act, rel_src = [-1] * (n * n_c), [0.0] * (n * n_c), [-1] * (n * n_c)
    # per tried swap: (row, activity, company of i, company of j)
    swap_memo: dict[int, tuple[int, float, int, int]] = {}

    def relocate(k: int) -> bool:
        i, dst = divmod(k, n_c)
        src = asg[i]
        if dst == src:
            return False
        r = rel_row[k]
        if r >= 0 and rel_src[k] == src and act[r] == rel_act[k]:
            return False
        if ev.try_moves(((i, dst),)):
            return True
        r = ev.blocked
        if r is not None:
            rel_row[k], rel_act[k], rel_src[k] = r, act[r], src
        return False

    def swap(k: int) -> bool:
        i, j = divmod(k, n)
        ci, cj = asg[i], asg[j]
        if ci == cj:
            return False
        memo = swap_memo.get(k)
        if memo is not None and memo[2] == ci and memo[3] == cj and act[memo[0]] == memo[1]:
            return False
        if ev.try_moves(((i, cj), (j, ci))):
            return True
        r = ev.blocked
        if r is not None:
            swap_memo[k] = (r, act[r], ci, cj)
        return False

    relocates, swaps = deque(ev.relocation_order(rng)), None
    for _ in range(budget):
        if ev.violation == 0.0 and ev.objective <= floor + EPS:
            return
        if deadline is not None and time.monotonic() > deadline:
            return
        if _take_first(relocates, relocate):
            continue
        if swaps is None:
            order = [i * n + j for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(order)
            swaps = deque(order)
        if not _take_first(swaps, swap):
            return


def local_search(roster: Roster, start: Assignment, objective: ModelVariant,
                 budget: int, *, seed: int = 0, evaluator: MoveEvaluator | None = None,
                 deadline: float | None = None) -> Assignment:
    """Seeded :func:`descend` from ``start`` over the roster's x-block rows,
    down to the variant's :func:`~cohort_shuffle.bounds.objective_floor`.

    A feasible start stays feasible and only the objective falls; an
    infeasible one is first walked toward feasibility.  An ``evaluator``
    built for the same roster and variant is loaded and reused; without one,
    the model is compiled here.  The descent stops at ``deadline``, a
    ``time.monotonic()`` value.
    """
    asg = dict(start)
    if budget <= 0:
        return asg
    ev = evaluator or MoveEvaluator(compile_model(roster, objective))
    ev.load([asg[sid] for sid in ev.ids])
    descend(ev, random.Random(seed), budget, objective_floor(roster, objective),
            deadline=deadline)
    asg.update(zip(ev.ids, ev.asg))
    return asg
