"""End-to-end orchestration: validate, compile, warm-start, solve, certify.

`solve_roster` is the one-call entry point used by the CLI.  It wires the
pieces together in the order that makes the solver fastest and the result
auditable: structural validation up front, a local-search descent from
each constructive start until one reaches the objective floor (the
pigeonhole bound for the pairs variant, which the solver proves against
too) as the warm start, and an independent certificate on the way out.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

from cohort_shuffle.bounds import Certificate, certify, objective_floor
from cohort_shuffle.bounds import pairs_lower_bound  # noqa: F401  perfbench/tracer.py wraps it here
from cohort_shuffle.branch_bound import SolveOptions, SolveResult, solve_ip
from cohort_shuffle.compiler import compile_model
from cohort_shuffle.heuristics import (MoveEvaluator, cyclic_deal, local_search,
                                       rotate_within_battalions)
from cohort_shuffle.ipmodel import IpModel, ModelVariant
from cohort_shuffle.roster import (
    Assignment,
    Roster,
    assignment_objective,
    check_feasible,
    validate_roster,
)

#: moves each warm-start descent may accept
LS_BUDGET = 200


@dataclass(frozen=True)
class PipelineResult:
    result: SolveResult
    certificate: Certificate | None
    warm_start: Assignment | None


def require_valid(roster: Roster) -> None:
    """Raise ValueError naming up to five of the roster's structural defects,
    if :func:`~cohort_shuffle.roster.validate_roster` finds any."""
    problems = validate_roster(roster)
    if problems:
        raise ValueError("invalid roster: " + "; ".join(v.message for v in problems[:5]))


def build_warm_start(roster: Roster, variant: ModelVariant, *, seed: int = 0,
                     model: IpModel | None = None,
                     deadline: float | None = None) -> Assignment | None:
    """Cheapest feasible assignment the heuristics can find, else None.

    Descends the cyclic deal (when there are companies to deal over) and
    the two battalion rotations, feasible or not, with ``local_search`` on
    one shared move evaluator until one meets the objective floor.  The
    evaluator is built from ``model``, which must have been compiled from
    ``roster`` as ``variant`` (ValueError otherwise); without one, the
    compact form is compiled here, whose x-block is the paper form's.  Each
    descent stops at ``deadline``, a ``time.monotonic()`` value; once it has
    passed, neither the evaluator nor any descent is made, and the starts
    are checked as they are.  Only assignments that pass the feasibility
    check the certificate uses are returned, so a warm start can never
    poison a solve.
    """
    if model is not None and (model.variant is not variant or model.roster != roster):
        raise ValueError("the model was not compiled from this roster and variant")
    forbid = variant is not ModelVariant.MIN_SAME_COMPANY
    candidates = [cyclic_deal(roster)] if roster.num_companies > 1 else []
    candidates += [rotate_within_battalions(roster), rotate_within_battalions(roster, shift=2)]
    if deadline is None or time.monotonic() <= deadline:
        ev = MoveEvaluator(model or compile_model(roster, variant, form="compact"))
        candidates = (local_search(roster, asg, variant, LS_BUDGET, seed=seed, evaluator=ev,
                                   deadline=deadline) for asg in candidates)

    floor = objective_floor(roster, variant)
    best, best_obj = None, math.inf
    for asg in candidates:
        if not check_feasible(roster, asg, forbid_same_company=forbid).feasible:
            continue
        obj = assignment_objective(roster, asg, variant)
        if obj < best_obj:
            best, best_obj = asg, obj
        if obj <= floor:
            break
    return best


def solve_roster(roster: Roster, variant: ModelVariant,
                 options: SolveOptions | None = None) -> PipelineResult:
    """Validate, compile and solve one roster; returns result + certificate.

    The model is the compact form (for ``pairs``, a count and a pairs
    epigraph per cohort and company in place of a column per acquainted
    pair), which the warm start's evaluator and the search share.  Raises
    ValueError when the roster is structurally invalid.  A warm
    start that meets the variant's objective floor (the pigeonhole bound
    for pairs) closes the gap without any enumeration.  A time limit counts
    from the call: the warm start's descents stop at it, and the search
    gets what the validation, compile and warm start left of it.
    """
    started = time.monotonic()
    require_valid(roster)

    opts = options if options is not None else SolveOptions()
    deadline = None if opts.time_limit_s is None else started + opts.time_limit_s
    model = compile_model(roster, variant, form="compact")

    if opts.warm_start is None:
        opts = dataclasses.replace(opts, warm_start=build_warm_start(
            roster, variant, seed=opts.seed, model=model, deadline=deadline))

    if deadline is not None:
        opts = dataclasses.replace(opts, time_limit_s=max(0.0, deadline - time.monotonic()))
    result = solve_ip(model, opts)
    cert = None
    if result.assignment is not None:
        cert = certify(result, roster, variant)
    return PipelineResult(result=result, certificate=cert, warm_start=opts.warm_start)
