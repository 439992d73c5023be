"""Domain model for company-reassignment instances.

A roster bundles one class of students, the company/battalion structure
they are being shuffled into, pairwise conflicts (students who must not
share a company), and the tolerance windows every company has to satisfy
after reassignment.  All types are immutable after construction and every
operation here is a pure function, so rosters can be shared freely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from cohort_shuffle.ipmodel import ModelVariant

GENDERS = ("male", "female")
METRICS = ("aom", "mom", "prt")
QUALITIES = ("all", "task_force", "prior_service")

#: Absolute tolerance for real-valued feasibility comparisons, and the
#: solver's primal feasibility tolerance, so solver output always re-validates.
FEAS_TOL = 1e-6

# Assignment: total map from student id to new company index.
Assignment = dict[str, int]


@dataclass(frozen=True)
class Student:
    """One reassignable student."""

    id: str
    aom: float
    mom: float
    prt: float
    gender: str
    race: str
    old_company: int
    is_task_force: bool = False
    is_prior_service: bool = False
    is_sapr_guide: bool = False
    is_international: bool = False
    battalion_locked: bool = False
    sports: frozenset[str] = frozenset()

    def score(self, metric: str) -> float:
        if metric == "aom":
            return self.aom
        if metric == "mom":
            return self.mom
        if metric == "prt":
            return self.prt
        raise KeyError(f"unknown merit metric: {metric!r}")


@dataclass(frozen=True)
class Tolerances:
    """Per-company composition windows.

    Missing keys mean "unconstrained": no constraint row is compiled and
    feasibility checks skip the family.  ``num_intl=None`` disables the
    international-count family entirely; ``sapr_companies`` and
    ``intl_companies`` default to all companies when left ``None``.
    """

    count_min: Mapping[str, int] = field(default_factory=dict)
    count_max: Mapping[str, int] = field(default_factory=dict)
    merit_min: Mapping[str, float] = field(default_factory=dict)
    merit_max: Mapping[str, float] = field(default_factory=dict)
    gender_min: Mapping[str, float] = field(default_factory=dict)
    gender_max: Mapping[str, float] = field(default_factory=dict)
    race_min: Mapping[str, float] = field(default_factory=dict)
    race_max: Mapping[str, float] = field(default_factory=dict)
    sport_max: Mapping[str, int] = field(default_factory=dict)
    min_sapr: int = 0
    num_intl: int | None = None
    sapr_companies: frozenset[int] | None = None
    intl_companies: frozenset[int] | None = None


#: The four two-sided windows, in model order: (``Tolerances`` field stem,
#: config-key stem, bound type, keys in model order or ``None`` for the
#: free-form race labels, ``measure(students, key)``: what each student adds
#: to the key's company total).  The config spells them ``min_<name>_<key>``
#: and ``max_<name>_<key>``.  An ``int`` window bounds a count, a ``float``
#: one the total per member: an average or, for the last two, a share.
WINDOWS = (
    ("count", "number", int, QUALITIES, lambda ss, q: [True] * len(ss) if q == "all"
     else list(map(attrgetter("is_" + q), ss))),
    ("merit", "avg_score", float, METRICS, lambda ss, m: list(map(attrgetter(m), ss))),
    ("gender", "gender", float, GENDERS, lambda ss, g: [s.gender == g for s in ss]),
    ("race", "race", float, None, lambda ss, e: [s.race == e for s in ss]),
)


def windows(tol: Tolerances) -> Iterator[tuple]:
    """``(stem, key, lo, hi, per_member, measure)`` for every window key bounded
    on either side, in model order; an open side is ``None``."""
    for stem, _, cast, keys, measure in WINDOWS:
        lo_map, hi_map = getattr(tol, f"{stem}_min"), getattr(tol, f"{stem}_max")
        for key in keys or sorted(set(lo_map) | set(hi_map)):
            lo, hi = lo_map.get(key), hi_map.get(key)
            if lo is not None or hi is not None:
                yield stem, key, lo, hi, cast is float, measure


@dataclass(frozen=True)
class Roster:
    """A full problem instance."""

    students: tuple[Student, ...]
    num_companies: int
    battalions: tuple[tuple[int, ...], ...]
    conflict_pairs: tuple[tuple[str, str], ...] = ()
    tolerances: Tolerances = field(default_factory=Tolerances)
    aom_weight: float = 0.5
    mom_weight: float = 0.5

    def company_label(self, company: int) -> str:
        return f"C{company + 1}"

    def battalion_label(self, battalion: int) -> str:
        return f"B{battalion + 1}"

    @property
    def company_labels(self) -> tuple[str, ...]:
        return tuple(self.company_label(c) for c in range(self.num_companies))

    def battalion_of(self, company: int) -> int:
        for b, members in enumerate(self.battalions):
            if company in members:
                return b
        raise KeyError(f"company index {company} is not in any battalion")

    def company_sizes(self) -> list[int]:
        """Previous-enrollment size of every company."""
        sizes = [0] * self.num_companies
        for s in self.students:
            sizes[s.old_company] += 1
        return sizes


@dataclass(frozen=True)
class Violation:
    """A structural defect found by :func:`validate_roster`."""

    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint family instance on a concrete assignment."""

    family: str
    company: int | None
    students: tuple[str, ...]
    slack: float
    message: str


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[ConstraintViolation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def families(self) -> set[str]:
        return {v.family for v in self.violations}


def validate_roster(roster: Roster) -> list[Violation]:
    """Report every structural defect of a roster instance.

    An empty list means the instance is well formed (not necessarily
    feasible).  Violations are data, not failures.
    """
    out: list[Violation] = []
    n_c = roster.num_companies

    if n_c < 1:
        out.append(Violation("no_companies", "", "roster has no companies"))
    if not roster.students:
        out.append(Violation("no_students", "", "roster has no students"))

    seen_ids: set[str] = set()
    for s in roster.students:
        if s.id in seen_ids:
            out.append(Violation("duplicate_id", s.id, f"student id {s.id!r} appears more than once"))
        seen_ids.add(s.id)
        if not (0 <= s.old_company < n_c):
            out.append(Violation("unknown_company", s.id, f"student {s.id!r} references company index {s.old_company}"))
        for metric in METRICS:
            v = s.score(metric)
            if not (v >= 0.0) or v != v or v in (float("inf"), float("-inf")):
                out.append(Violation("bad_score", s.id, f"student {s.id!r} has non-finite or negative {metric} score {v!r}"))
        if s.gender not in GENDERS:
            out.append(Violation("bad_gender", s.id, f"student {s.id!r} has unknown gender {s.gender!r}"))

    covered = [c for group in roster.battalions for c in group]
    if sorted(covered) != list(range(n_c)):
        out.append(Violation("bad_battalions", "", "battalions do not partition the company indices exactly once"))
    elif len({len(group) for group in roster.battalions}) > 1:
        out.append(Violation("unequal_battalions", "", "battalions must contain the same number of companies"))

    for a, b in roster.conflict_pairs:
        if a == b:
            out.append(Violation("self_conflict", a, f"conflict pair ({a!r}, {b!r}) pairs a student with themselves"))
        for sid in (a, b):
            if sid not in seen_ids:
                out.append(Violation("unknown_student", sid, f"conflict pair references unknown student {sid!r}"))

    tol = roster.tolerances
    for stem, name, _, keys, _ in WINDOWS:
        for side in ("min", "max") if keys else ():
            out.extend(Violation("unknown_window_key", key, f"{side}_{name}[{key}] names no known "
                                 f"key: {', '.join(keys)}")
                       for key in getattr(tol, f"{stem}_{side}") if key not in keys)
        hi_map = getattr(tol, f"{stem}_max")
        for key, lo in getattr(tol, f"{stem}_min").items():
            hi = hi_map.get(key)
            if hi is not None and lo > hi:
                out.append(Violation("inverted_bound", key, f"min_{name}[{key}] = {lo} exceeds max_{name}[{key}] = {hi}"))
    for stem, name, *_ in WINDOWS[2:]:
        for side in ("min", "max"):
            for key, frac in getattr(tol, f"{stem}_{side}").items():
                if not (0.0 <= frac <= 1.0):
                    out.append(Violation("bad_fraction", key, f"{side}_{name}[{key}] = {frac} is outside [0, 1]"))

    for subset, label in ((tol.sapr_companies, "sapr_companies"), (tol.intl_companies, "intl_companies")):
        if subset is not None:
            for c in subset:
                if not (0 <= c < n_c):
                    out.append(Violation("unknown_company", label, f"{label} references company index {c}"))

    if abs(roster.aom_weight + roster.mom_weight - 1.0) > 1e-9:
        out.append(Violation("bad_weights", "", f"aom_weight + mom_weight = {roster.aom_weight + roster.mom_weight}, expected 1"))
    if roster.aom_weight < 0 or roster.mom_weight < 0:
        out.append(Violation("bad_weights", "", "objective weights must be nonnegative"))

    return out


def _require_total(roster: Roster, assignment: Assignment) -> None:
    for s in roster.students:
        if s.id not in assignment:
            raise KeyError(f"assignment is missing student {s.id!r}")
        c = assignment[s.id]
        if not (0 <= c < roster.num_companies):
            raise ValueError(f"assignment sends student {s.id!r} to unknown company index {c}")


def company_members(roster: Roster, assignment: Assignment) -> list[list[Student]]:
    """Students grouped by their new company, in roster order."""
    _require_total(roster, assignment)
    groups: list[list[Student]] = [[] for _ in range(roster.num_companies)]
    for s in roster.students:
        groups[assignment[s.id]].append(s)
    return groups


def check_feasible(roster: Roster, assignment: Assignment, *,
                   forbid_same_company: bool = False) -> FeasibilityReport:
    """Evaluate every constraint family on a concrete assignment.

    Windows on averages and shares are checked in the same homogenized
    (multiplied-through) form used by the compiled model, within
    ``FEAS_TOL``, so an assignment passes here exactly when its 0/1 vector
    satisfies every compiled row.  With ``forbid_same_company`` the no-stay
    rows of the deviation and pairs variants are checked as well, and
    battalion-locked students must leave their previous company.
    """
    groups = company_members(roster, assignment)
    tolerances = roster.tolerances
    out: list[ConstraintViolation] = []

    # each window key's company totals, summed over members in roster order
    where = [assignment[s.id] for s in roster.students]
    totals = []
    for stem, key, lo, hi, per_member, measure in windows(tolerances):
        total = [0] * roster.num_companies
        for c, v in zip(where, measure(roster.students, key)):
            total[c] += v
        totals.append((stem, key, lo, hi, per_member, total))
    athletes = Counter((c, v) for c, s in zip(where, roster.students) for v in s.sports)

    def window_violation(c, stem, key, value, side, bound, slack) -> ConstraintViolation:
        return ConstraintViolation(f"{stem}_{side}", c, (), slack, f"company {roster.company_label(c)} "
                                   f"has {stem} {key} {value:.6g}, {side} {bound}")

    for c, members in enumerate(groups):
        n = len(members)
        for stem, key, lo, hi, per_member, total in totals:
            t, size = total[c], n if per_member else 1  # a count is bounded as is
            if hi is not None and t - hi * size > FEAS_TOL:
                out.append(window_violation(c, stem, key, t / size, "max", hi, t - hi * size))
            if lo is not None and lo * size - t > FEAS_TOL:
                out.append(window_violation(c, stem, key, t / size, "min", lo, lo * size - t))
        for v, cap in sorted(tolerances.sport_max.items()):
            cnt = athletes[c, v]
            if cnt > cap:
                out.append(ConstraintViolation("sport_cap", c, (), cnt - cap,
                                               f"company {roster.company_label(c)} has {cnt} {v} athletes, max {cap}"))

    if tolerances.min_sapr > 0:
        targets = tolerances.sapr_companies
        for c in range(roster.num_companies):
            if targets is not None and c not in targets:
                continue
            cnt = sum(1 for s in groups[c] if s.is_sapr_guide)
            if cnt < tolerances.min_sapr:
                out.append(ConstraintViolation("sapr_min", c, (), tolerances.min_sapr - cnt,
                                               f"company {roster.company_label(c)} has {cnt} SAPR guides, min {tolerances.min_sapr}"))

    if tolerances.num_intl is not None:
        targets = tolerances.intl_companies
        for c in range(roster.num_companies):
            if targets is not None and c not in targets:
                continue
            cnt = sum(1 for s in groups[c] if s.is_international)
            if cnt != tolerances.num_intl:
                out.append(ConstraintViolation("intl_count", c, (), abs(cnt - tolerances.num_intl),
                                               f"company {roster.company_label(c)} has {cnt} international students, expected {tolerances.num_intl}"))

    for a, b in roster.conflict_pairs:
        if assignment[a] == assignment[b]:
            out.append(ConstraintViolation("conflict", assignment[a], (a, b), 1.0,
                                           f"conflict pair ({a}, {b}) shares company {roster.company_label(assignment[a])}"))

    for s in roster.students:
        new = assignment[s.id]
        if s.battalion_locked:
            old_batt = roster.battalion_of(s.old_company)
            if new not in roster.battalions[old_batt]:
                out.append(ConstraintViolation("battalion_lock", new, (s.id,), 1.0,
                                               f"locked student {s.id} left battalion {roster.battalion_label(old_batt)}"))
        if forbid_same_company and new == s.old_company:
            out.append(ConstraintViolation("no_stay", new, (s.id,), 1.0,
                                           f"student {s.id} stayed in company {roster.company_label(new)}"))

    return FeasibilityReport(tuple(out))


def count_same_company(roster: Roster, assignment: Assignment) -> int:
    """Number of students whose new company equals their previous one."""
    _require_total(roster, assignment)
    return sum(1 for s in roster.students if assignment[s.id] == s.old_company)


def count_pairs(roster: Roster, assignment: Assignment) -> int:
    """Unordered same-previous-company pairs that land in one new company.

    Two students form a countable pair when they shared a previous company
    and share a new one; each pair is counted once.
    """
    _require_total(roster, assignment)
    # cohort[(new, old)] = number of students from old company `old`
    # reassigned to new company `new`
    cohort: dict[tuple[int, int], int] = {}
    for s in roster.students:
        key = (assignment[s.id], s.old_company)
        cohort[key] = cohort.get(key, 0) + 1
    return sum(k * (k - 1) // 2 for k in cohort.values())


def score_sums(roster: Roster, assignment: Assignment, metric: str) -> list[float]:
    """Per-company sum of one merit score under an assignment.

    Accumulates in roster order so independent recomputations produce
    bit-identical floats.
    """
    sums = [0.0] * roster.num_companies
    for s in roster.students:
        sums[assignment[s.id]] += s.score(metric)
    return sums


def deviation_from_sums(aom_sums: Iterable[float], mom_sums: Iterable[float],
                        aom_weight: float, mom_weight: float) -> float:
    """Weighted sum of absolute score-sum differences over ordered company pairs."""
    a = list(aom_sums)
    m = list(mom_sums)
    total_a = 0.0
    total_m = 0.0
    for c in range(len(a)):
        for c2 in range(len(a)):
            if c2 == c:
                continue
            total_a += abs(a[c] - a[c2])
            total_m += abs(m[c] - m[c2])
    return aom_weight * total_a + mom_weight * total_m


def weighted_deviation(roster: Roster, assignment: Assignment) -> float:
    """Deviation objective evaluated on a concrete assignment: raw
    per-company score sums compared, as the deviation model's linearized
    rows compare them."""
    _require_total(roster, assignment)
    return deviation_from_sums(score_sums(roster, assignment, "aom"),
                               score_sums(roster, assignment, "mom"),
                               roster.aom_weight, roster.mom_weight)


def assignment_objective(roster: Roster, assignment: Assignment, variant: ModelVariant) -> float:
    """The variant's objective on a concrete assignment."""
    if variant is ModelVariant.MIN_SAME_COMPANY:
        return float(count_same_company(roster, assignment))
    if variant is ModelVariant.MIN_PAIRS:
        return float(count_pairs(roster, assignment))
    return weighted_deviation(roster, assignment)
