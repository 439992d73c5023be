"""A-priori lower bound for the pairs objective and result certification.

When every student must leave their previous company, a company of size
``n`` has only ``|C| - 1`` admissible destinations, so by pigeonhole at
least ``n - (|C| - 1)`` of its students share a destination with a former
companymate.  Summing the per-company excesses gives a valid lower bound
on the pairs objective of any feasible reassignment, and an incumbent
matching it is optimal by inspection.  Spreading a company's students as
evenly as possible over those destinations gives the tighter per-company
floor that the solver, the certificate and the ``bound`` command use; the
two agree while no company is over ``2(|C| - 1)``.  The
optimality gap is the relative distance between a solution and a bound,
reported as a percentage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from cohort_shuffle.ipmodel import ModelVariant
from cohort_shuffle.roster import Roster, assignment_objective, check_feasible

if TYPE_CHECKING:
    from cohort_shuffle.branch_bound import SolveResult


@dataclass(frozen=True)
class PairsBoundReport:
    """Per-company pigeonhole excesses and their total."""

    per_company: tuple[tuple[int, int], ...]
    total: int

    def company_bound(self, company: int) -> int:
        return self.per_company[company][1]


def pairs_lower_bound(roster: Roster) -> PairsBoundReport:
    """Lower bound on the pairs objective under the no-stay rule.

    Each entry pairs a company's previous enrollment with
    ``max(0, size - (num_companies - 1))``.
    """
    if roster.num_companies < 2:
        raise ValueError("the bound needs at least 2 companies")
    slots = roster.num_companies - 1
    per = tuple((size, max(0, size - slots)) for size in roster.company_sizes())
    return PairsBoundReport(per, sum(b for _, b in per))


def pairs_floors(roster: Roster) -> tuple[int, ...]:
    """Fewest same-destination pairs each previous company can form.

    A previous company of ``s`` students dealt over the ``|C| - 1`` other
    companies forms the fewest pairs when dealt evenly, ``q, r = divmod(s,
    |C| - 1)``: ``r`` destinations get ``q + 1`` students and the rest
    ``q``.  While ``s <= 2(|C| - 1)`` this is :func:`pairs_lower_bound`'s
    excess; beyond, it is larger.
    """
    if roster.num_companies < 2:
        raise ValueError("the bound needs at least 2 companies")
    slots = roster.num_companies - 1
    floors = []
    for size in roster.company_sizes():
        q, r = divmod(size, slots)
        floors.append(r * (q + 1) * q // 2 + (slots - r) * q * (q - 1) // 2)
    return tuple(floors)


def objective_floor(roster: Roster, variant: ModelVariant) -> float:
    """A-priori lower bound on the objective: 0 except for pairs, where it
    sums :func:`pairs_floors`."""
    if variant is not ModelVariant.MIN_PAIRS:
        return 0.0
    return float(sum(pairs_floors(roster)))


def optimality_gap(best_solution: float, best_bound: float) -> float:
    """Relative distance from a bound, as a percentage.

    A zero bound with a zero solution is a closed gap; a zero bound with a
    nonzero solution carries no relative information and reads as an
    infinite gap.
    """
    if best_bound == 0.0:
        return 0.0 if best_solution == 0.0 else math.inf
    return abs(best_solution - best_bound) / best_bound * 100.0


@dataclass(frozen=True)
class Certificate:
    """Independent re-evaluation of a solver result.

    ``ok`` means the reported objective matched the recomputation and the
    assignment passed every constraint family.  ``optimal_by_bound`` is
    this module's own optimality claim (objective equal to the a-priori
    bound); the solver's status is echoed but not taken on faith.
    """

    ok: bool
    feasible: bool
    objective_matches: bool
    recomputed_objective: float | None
    reported_objective: float | None
    bound: float | None
    gap_percent: float | None
    optimal_by_bound: bool
    solver_status: str
    notes: tuple[str, ...]


def certify(result: "SolveResult", roster: Roster, variant: ModelVariant) -> Certificate:
    """Re-derive a result's objective and feasibility from first principles.

    Certification failures are returned, never raised: a mismatch between
    the reported and recomputed objective marks the certificate not-ok and
    surfaces a solver bug instead of passing it along.
    """
    notes: list[str] = []
    status = result.status.value
    if result.assignment is None or result.objective is None:
        return Certificate(False, False, False, None, None, None, None, False,
                           status, ("result carries no assignment to certify",))

    asg = result.assignment
    forbid = variant is not ModelVariant.MIN_SAME_COMPANY
    report = check_feasible(roster, asg, forbid_same_company=forbid)
    feasible = report.feasible
    if not feasible:
        notes.append("violated families: " + ", ".join(sorted(report.families())))

    recomputed = assignment_objective(roster, asg, variant)
    floor = objective_floor(roster, variant)
    bound = floor
    if variant is ModelVariant.MERIT_DEVIATION:
        bound = max(0.0, min(result.bound, recomputed))
    elif variant is ModelVariant.MIN_PAIRS and any(s.battalion_locked for s in roster.students):
        notes.append("battalion-locked students only restrict destinations; "
                     "the pigeonhole bound remains valid")

    matches = abs(recomputed - result.objective) <= 1e-6
    if not matches:
        notes.append(f"reported objective {result.objective!r} != recomputed {recomputed!r}")

    return Certificate(feasible and matches, feasible, matches, recomputed,
                       result.objective, bound, optimality_gap(recomputed, bound),
                       recomputed == floor, status, tuple(notes))
