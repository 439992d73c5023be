"""Synthetic roster generation calibrated to the reference cohort shape.

No real student data exists in this package.  The generator fabricates a
brigade whose company sizes, merit-score envelopes, demographic mix, and
special-population counts look like the reference summary statistics, and
whose previous assignment is feasible under its own tolerance windows by
construction.  Score windows are enforced per student (each draw is
clipped into the configured range), so any reassignment keeps every
company average inside the merit windows; the remaining windows are
calibrated from the generated previous assignment, which also guarantees
that rotating whole companies within a battalion is a feasible zero-stay
reassignment whenever each battalion holds at least two companies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cohort_shuffle.roster import WINDOWS, Roster, Student, Tolerances

#: Previous-enrollment company sizes of the two bundled class years.
_REFERENCE_SIZES = {
    2023: (37, 35, 38, 37, 38, 35, 37, 38, 39, 36, 39, 40, 40, 36, 33,
           37, 38, 39, 33, 36, 37, 36, 36, 35, 35, 37, 34, 38, 33, 35),
    2024: (39, 35, 37, 38, 39, 42, 36, 39, 38, 40, 40, 39, 40, 38, 40,
           39, 39, 39, 39, 39, 40, 39, 40, 39, 38, 40, 38, 39, 37, 40),
}

DEFAULT_SPORTS = ("football", "basketball", "soccer", "lacrosse", "wrestling",
                  "swimming", "track", "crew", "rugby", "hockey", "baseball",
                  "volleyball", "golf")


class GenerationError(ValueError):
    """A generation spec is internally contradictory."""


@dataclass(frozen=True)
class MetricSpec:
    """Two-level score model: company mean offsets plus individual noise.

    Individual draws are clipped into ``[lo, hi]``, so the merit windows
    set from that range hold for every possible assignment.
    """

    lo: float
    hi: float
    mean: float
    between_std: float
    within_std: float


@dataclass(frozen=True)
class GenSpec:
    """Shape parameters for one synthetic brigade."""

    num_companies: int = 30
    num_battalions: int = 6
    company_sizes: tuple[int, ...] | None = None
    company_size: int | None = None
    size_range: tuple[int, int] = (33, 42)
    aom: MetricSpec = MetricSpec(444.0, 680.0, 547.57, 61.31, 35.0)
    mom: MetricSpec = MetricSpec(455.0, 649.0, 546.25, 48.0, 35.0)
    prt: MetricSpec = MetricSpec(86.0, 93.0, 90.40, 1.2, 1.8)
    male_fraction: float = 0.72
    focus_race: str = "white"
    focus_race_fraction: float = 0.70
    other_race: str = "other"
    intl_per_company: int = 1
    sapr_per_company: int = 2
    task_force_fraction: float = 0.10
    prior_service_fraction: float = 0.05
    battalion_locked_fraction: float = 0.05
    sports: tuple[str, ...] = DEFAULT_SPORTS
    athlete_fraction: float = 0.25
    num_conflict_pairs: int = 10
    conflict_cross_gender: bool = True
    count_slack: int = 1
    fraction_slack: float = 0.03
    bare: bool = False
    aom_weight: float = 0.5
    mom_weight: float = 0.5


def desk_spec(num_companies: int = 8, company_size: int = 8,
              num_battalions: int = 1, num_conflict_pairs: int = 4) -> GenSpec:
    """Small instance that an exact solve handles in seconds."""
    return GenSpec(num_companies=num_companies, num_battalions=num_battalions,
                   company_size=company_size, num_conflict_pairs=num_conflict_pairs,
                   sports=DEFAULT_SPORTS[:4])


def reference_spec(class_year: int | None = 2023) -> GenSpec:
    """Full-scale instance; bundled reference sizes when a year is given."""
    sizes = reference_company_sizes(class_year) if class_year is not None else None
    return GenSpec(company_sizes=sizes)


def balanced_spec(num_companies: int, company_size: int) -> GenSpec:
    """Uniform sizes and no side constraints: the pigeonhole-bound regime."""
    return GenSpec(num_companies=num_companies, num_battalions=1,
                   company_size=company_size, num_conflict_pairs=0,
                   intl_per_company=0, sapr_per_company=0,
                   task_force_fraction=0.0, prior_service_fraction=0.0,
                   battalion_locked_fraction=0.0, athlete_fraction=0.0,
                   bare=True)


def reference_company_sizes(class_year: int) -> tuple[int, ...]:
    """The 30 bundled previous-enrollment sizes for a class year."""
    try:
        return _REFERENCE_SIZES[class_year]
    except KeyError:
        raise GenerationError(f"no reference sizes for class year {class_year}") from None


def _sizes(spec: GenSpec, rng: np.random.Generator) -> list[int]:
    if spec.company_sizes is not None:
        if len(spec.company_sizes) != spec.num_companies:
            raise GenerationError("company_sizes length must equal num_companies")
        sizes = list(spec.company_sizes)
    elif spec.company_size is not None:
        sizes = [spec.company_size] * spec.num_companies
    else:
        lo, hi = spec.size_range
        if lo > hi or lo < 1:
            raise GenerationError(f"invalid size range {spec.size_range}")
        sizes = [int(v) for v in rng.integers(lo, hi + 1, size=spec.num_companies)]
    if min(sizes) < 1:
        raise GenerationError(f"every company needs at least 1 student, not {min(sizes)}")
    return sizes


def _scores(ms: MetricSpec, sizes: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    pad = min(2.0 * ms.within_std, (ms.hi - ms.lo) / 4.0)
    offsets = rng.normal(0.0, ms.between_std, size=len(sizes))
    offsets -= offsets.mean()
    mus = np.clip(ms.mean + offsets, ms.lo + pad, ms.hi - pad)
    out = []
    for c, n in enumerate(sizes):
        draws = rng.normal(mus[c], ms.within_std, size=n)
        out.append(np.clip(draws, ms.lo, ms.hi))
    return out


def _pick(rng: np.random.Generator, n: int, k: int) -> set[int]:
    if k <= 0:
        return set()
    return set(int(v) for v in rng.choice(n, size=min(k, n), replace=False))


def generate(spec: GenSpec, seed: int) -> Roster:
    """Fabricate a deterministic roster for the given spec and seed."""
    if spec.num_companies < 1:
        raise GenerationError("need at least one company")
    if spec.num_companies % spec.num_battalions != 0:
        raise GenerationError("companies must split evenly into battalions")
    rng = np.random.default_rng(seed)
    n_c = spec.num_companies
    sizes = _sizes(spec, rng)
    if spec.intl_per_company > min(sizes) or spec.sapr_per_company > min(sizes):
        raise GenerationError("per-company populations exceed the smallest company")

    aom = _scores(spec.aom, sizes, rng)
    mom = _scores(spec.mom, sizes, rng)
    prt = _scores(spec.prt, sizes, rng)

    students: list[Student] = []
    sid = 0
    for c in range(n_c):
        n = sizes[c]
        males = _pick(rng, n, round(spec.male_fraction * n))
        focus = _pick(rng, n, round(spec.focus_race_fraction * n))
        intl = _pick(rng, n, spec.intl_per_company)
        sapr = _pick(rng, n, spec.sapr_per_company)
        task = _pick(rng, n, round(spec.task_force_fraction * n))
        prior = _pick(rng, n, round(spec.prior_service_fraction * n))
        locked = _pick(rng, n, round(spec.battalion_locked_fraction * n))
        athletes = _pick(rng, n, round(spec.athlete_fraction * n))
        sport_of = {}
        if spec.sports:
            for k in sorted(athletes):
                sport_of[k] = spec.sports[int(rng.integers(0, len(spec.sports)))]
        for k in range(n):
            sid += 1
            students.append(Student(
                id=f"s{sid:04d}",
                aom=float(aom[c][k]),
                mom=float(mom[c][k]),
                prt=float(prt[c][k]),
                gender="male" if k in males else "female",
                race=spec.focus_race if k in focus else spec.other_race,
                old_company=c,
                is_task_force=k in task,
                is_prior_service=k in prior,
                is_sapr_guide=k in sapr,
                is_international=k in intl,
                battalion_locked=k in locked,
                sports=frozenset([sport_of[k]] if k in sport_of else []),
            ))

    per_batt = n_c // spec.num_battalions
    battalions = tuple(tuple(range(b * per_batt, (b + 1) * per_batt))
                       for b in range(spec.num_battalions))

    conflicts: list[tuple[str, str]] = []
    if spec.num_conflict_pairs > 0:
        chosen: set[tuple[str, str]] = set()
        attempts = 0
        while len(conflicts) < spec.num_conflict_pairs and attempts < 1000:
            attempts += 1
            i, j = (int(v) for v in rng.integers(0, len(students), size=2))
            a, b = students[i], students[j]
            if a.old_company == b.old_company:
                continue
            if spec.conflict_cross_gender and a.gender == b.gender:
                continue
            key = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            if key in chosen:
                continue
            chosen.add(key)
            conflicts.append(key)
        conflicts.sort()

    tolerances = Tolerances() if spec.bare else _calibrate(spec, students, sizes, n_c)

    return Roster(students=tuple(students), num_companies=n_c,
                  battalions=battalions, conflict_pairs=tuple(conflicts),
                  tolerances=tolerances, aom_weight=spec.aom_weight,
                  mom_weight=spec.mom_weight)


def _calibrate(spec: GenSpec, students: list[Student], sizes: list[int],
               n_c: int) -> Tolerances:
    """Windows derived from the previous assignment so it is feasible as-is.

    Count and fraction windows are the observed per-company ranges widened
    by the configured slack; merit windows are the hard clip ranges.
    """
    def observed(added: list) -> list[int]:
        per = [0] * n_c
        for s, v in zip(students, added):
            per[s.old_company] += v
        return per

    _, _, _, groups, members = WINDOWS[0]  # the head-count window
    counts = {q: observed(members(students, q)) for q in groups}

    def fraction_window(inside: list[bool]) -> tuple[float, float]:
        fracs = [k / n for k, n in zip(observed(inside), sizes)]
        return (max(0.0, min(fracs) - spec.fraction_slack),
                min(1.0, max(fracs) + spec.fraction_slack))

    g_lo, g_hi = fraction_window([s.gender == "male" for s in students])
    r_lo, r_hi = fraction_window([s.race == spec.focus_race for s in students])

    sport_max: dict[str, int] = {}
    for v in spec.sports:
        cap = max(observed([v in s.sports for s in students])) + spec.count_slack
        if cap > 0:
            sport_max[v] = cap

    return Tolerances(
        count_min={q: max(0, min(per) - spec.count_slack) for q, per in counts.items()},
        count_max={q: max(per) + spec.count_slack for q, per in counts.items()},
        merit_min={"aom": spec.aom.lo, "mom": spec.mom.lo, "prt": spec.prt.lo},
        merit_max={"aom": spec.aom.hi, "mom": spec.mom.hi, "prt": spec.prt.hi},
        gender_min={"male": g_lo},
        gender_max={"male": g_hi},
        race_min={spec.focus_race: r_lo},
        race_max={spec.focus_race: r_hi},
        sport_max=sport_max,
        min_sapr=min(1, spec.sapr_per_company),
        num_intl=spec.intl_per_company if spec.intl_per_company > 0 else None,
    )
