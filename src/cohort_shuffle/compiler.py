"""Compile a roster into one of the three reassignment integer programs.

Every variant shares the assignment core: one binary column per
(student, company) pair plus the composition windows from the roster's
tolerances.  The variants differ only in objective and extra structure:

* ``MIN_SAME_COMPANY`` puts cost 1 on every stay-put column.
* ``MERIT_DEVIATION`` forbids staying, adds one nonnegative spread
  variable per ordered company pair and merit metric, and minimizes the
  weighted sum of spreads.
* ``MIN_PAIRS`` forbids staying and minimizes how many previously
  acquainted student pairs end up together again.  Its ``"paper"`` form,
  the default and what ``export-lp`` writes, adds one binary co-location
  variable per acquainted pair and one ``together`` row per pair and
  company.  Its ``"compact"`` form, the one ``solve_roster`` solves, adds
  per (new company, previous company) cell a count ``n`` of the cohort
  that lands there and an epigraph ``w`` of its pairs, ``w >= k n -
  k(k+1)/2`` for ``k`` below the cohort's size: at an integral point the
  least ``w`` is ``C(n, 2)``, so both forms have the same integer optimum.
  The other variants have one form.

Columns and rows are emitted as array blocks, family by family, into one
:class:`~cohort_shuffle.ipmodel.ColumnStore` and one
:class:`~cohort_shuffle.ipmodel.RowStore`; no column or row exists as a
Python tuple until someone reads it.  Column and row order is a pure function of the
roster, so compiling the same instance twice yields byte-identical exports.
The model keeps the roster it came from, which decodes its solutions, and
``x_rows``, the number of its leading rows over assignment columns alone:
exactly the families :func:`~cohort_shuffle.roster.check_feasible` audits.
Both forms share those rows and the assignment columns byte for byte.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from cohort_shuffle.ipmodel import ColumnBuilder, IpModel, ModelVariant, RowBuilder, Sense, VarKind
from cohort_shuffle.roster import Roster, windows

INF = float("inf")


def x_column(student_index: int, company: int, num_companies: int) -> int:
    """Column index of the assignment variable for one (student, company)."""
    return student_index * num_companies + company


def count_variables(roster: Roster, variant: ModelVariant) -> int:
    """Closed-form column count of the compiled model."""
    n = len(roster.students)
    c = roster.num_companies
    if variant is ModelVariant.MIN_SAME_COMPANY:
        return n * c
    if variant is ModelVariant.MERIT_DEVIATION:
        return n * c + 2 * c * (c - 1)
    return n * c + len(acquainted_pairs(roster))


def _cohorts(roster: Roster) -> dict[int, list[int]]:
    """Student indices per previous company, in roster order."""
    by_company: dict[int, list[int]] = {}
    for idx, s in enumerate(roster.students):
        by_company.setdefault(s.old_company, []).append(idx)
    return by_company


def acquainted_pairs(roster: Roster) -> list[tuple[int, int]]:
    """Student index pairs that shared a previous company, each once.

    Pairs are emitted grouped by previous company in roster order, the
    same order the paper-form pairs model creates its co-location columns.
    """
    by_company = _cohorts(roster)
    return [pair for c in sorted(by_company) for pair in itertools.combinations(by_company[c], 2)]


def cohort_cells(roster: Roster) -> list[tuple[int, int]]:
    """(new company, previous company) cells of the compact pairs form: every
    other company for each previous company of two or more students, grouped
    by previous company, the order of the form's ``n`` and ``w`` columns."""
    by_company = _cohorts(roster)
    return [(c, o) for o in sorted(by_company) if len(by_company[o]) > 1
            for c in range(roster.num_companies) if c != o]


def _window(family: str, lo: float | None, hi: float | None,
            row: Callable[[float], tuple[float, np.ndarray]]) -> list[tuple]:
    """Specs of the given sides of a ``[lo, hi]`` window: ``family`` formatted
    with ``min``/``max``, and ``row(bound)`` giving the right-hand side and
    the coefficients."""
    return [(family.format(side), sense, *row(bound))
            for side, sense, bound in (("min", Sense.GE, lo), ("max", Sense.LE, hi))
            if bound is not None]


def compile_model(roster: Roster, variant: ModelVariant, form: str = "paper") -> IpModel:
    """Build the requested variant as a row store over a column store, in the
    ``"paper"`` or the ``"compact"`` form (the same model but for ``pairs``)."""
    if not isinstance(variant, ModelVariant):
        raise ValueError(f"unknown model variant: {variant!r}")
    if form not in ("paper", "compact"):
        raise ValueError(f"unknown model form: {form!r}")
    if not roster.students:
        raise ValueError("cannot compile an empty roster")
    if variant is not ModelVariant.MIN_SAME_COMPANY and roster.num_companies < 2:
        raise ValueError("forbidding same-company reassignment needs at least 2 companies")
    students = roster.students
    n, n_c = len(students), roster.num_companies
    tol = roster.tolerances
    labels = roster.company_labels
    everyone = np.arange(n)
    companies = np.arange(n_c)
    student_keys = [(s.id,) for s in students]
    company_keys = [(label,) for label in labels]

    def members_where(test: Callable) -> np.ndarray:
        return np.array([i for i, s in enumerate(students) if test(s)], dtype=np.int64)

    def per_company(specs: list[tuple], members: np.ndarray = everyone,
                    targets: Sequence[int] = range(n_c)) -> None:
        """One row per target company and ``(family, sense, rhs, coefs)`` spec,
        over the company's columns of ``members`` with one coefficient each."""
        if not specs:
            return
        # a per-member part plus a per-company one: nothing of the rows' size
        # is made before the build
        cols = (np.broadcast_to(x_column(members, 0, n_c), (1, len(specs), len(members))),
                np.asarray(targets, dtype=np.int64)[:, None, None])
        rows.add([spec[:3] for spec in specs], ((),), [company_keys[c] for c in targets],
                 cols, np.reshape([spec[3] for spec in specs], (len(specs), len(members))))

    rows = RowBuilder()
    rows.add([("assign_once", Sense.EQ, 1.0)], student_keys, ((),),
             (x_column(everyone[:, None], 0, n_c), companies[None, :]), 1.0)

    for stem, key, lo, hi, per_member, measure in windows(tol):
        family, added = f"{stem}_{{}}_{key}", np.array(measure(students, key))
        if not per_member:
            members = np.flatnonzero(added)
            per_company(_window(family, lo, hi, lambda b: (float(b), np.ones(len(members)))),
                        members)
        else:  # homogenized: sum((added_i - bound) x) vs 0; a share's nonmember
            # writes -bound, so a bound of 0 gives -0.0 as it always has
            per_company(_window(family, lo, hi, lambda b: (
                0.0, np.where(added, 1.0 - b, -b) if added.dtype == bool else added - b)))

    for v in sorted(tol.sport_max):
        members = members_where(lambda s: v in s.sports)
        if len(members):
            per_company([(f"sport_cap_{v}", Sense.LE, float(tol.sport_max[v]),
                          np.ones(len(members)))], members)

    index_of = {s.id: i for i, s in enumerate(students)}
    conflicts = np.array([(index_of[a], index_of[b]) for a, b in roster.conflict_pairs],
                         dtype=np.int64).reshape(-1, 1, 2)
    rows.add([("conflict", Sense.LE, 1.0)], roster.conflict_pairs, company_keys,
             x_column(conflicts, companies[None, :, None], n_c).reshape(-1, 2), 1.0)

    if tol.min_sapr > 0:
        guides = members_where(lambda s: s.is_sapr_guide)
        per_company([("sapr_min", Sense.GE, float(tol.min_sapr), np.ones(len(guides)))], guides,
                    range(n_c) if tol.sapr_companies is None else sorted(tol.sapr_companies))

    if tol.num_intl is not None:
        intl = members_where(lambda s: s.is_international)
        per_company([("intl_count", Sense.EQ, float(tol.num_intl), np.ones(len(intl)))], intl,
                    range(n_c) if tol.intl_companies is None else sorted(tol.intl_companies))

    no_stay = variant is not ModelVariant.MIN_SAME_COMPANY
    locks = [(i, [c for c in sorted(roster.battalions[roster.battalion_of(s.old_company)])
                  if not (no_stay and c == s.old_company)])
             for i, s in enumerate(students) if s.battalion_locked]
    rows.add([("battalion_lock", Sense.EQ, 1.0)], [student_keys[i] for i, _ in locks], ((),),
             [x_column(i, c, n_c) for i, targets in locks for c in targets], 1.0,
             lengths=[len(targets) for _, targets in locks])

    old = np.array([s.old_company for s in students])
    if no_stay:
        rows.add([("no_stay", Sense.EQ, 0.0)], student_keys, ((),),
                 x_column(everyone, old, n_c)[:, None], 1.0)

    # the x-block ends here: rows over assignment columns alone
    x_rows = rows.count
    compact = form == "compact" and variant is ModelVariant.MIN_PAIRS
    paper_pairs = variant is ModelVariant.MIN_PAIRS and not compact
    pair_list = acquainted_pairs(roster) if paper_pairs else []
    pair_keys = [(students[a].id, students[b].id) for a, b in pair_list]
    cells = cohort_cells(roster) if compact else []
    cell_keys = [(labels[c], labels[o]) for c, o in cells]

    columns = ColumnBuilder()
    stays = 0.0
    if variant is ModelVariant.MIN_SAME_COMPANY:
        stays = np.zeros(n * n_c)
        stays[x_column(everyone, old, n_c)] = 1.0
    columns.add("x", [(s.id,) for s in students], company_keys, VarKind.BINARY,
                0.0, 1.0, stays)
    ordered_pairs = [(c, c2) for c in range(n_c) for c2 in range(n_c) if c2 != c]
    spread_keys = [(labels[c], labels[c2]) for c, c2 in ordered_pairs]
    if variant is ModelVariant.MERIT_DEVIATION:
        for name, weight in (("y", roster.aom_weight), ("z", roster.mom_weight)):
            columns.add(name, spread_keys, ((),), VarKind.CONTINUOUS, 0.0, INF, weight)
    columns.add("u", pair_keys, ((),), VarKind.BINARY, 0.0, 1.0, 1.0)
    columns.add("n", cell_keys, ((),), VarKind.CONTINUOUS, 0.0, INF, 0.0)
    columns.add("w", cell_keys, ((),), VarKind.CONTINUOUS, 0.0, INF, 1.0)
    x_base = n * n_c

    if variant is ModelVariant.MERIT_DEVIATION:
        # sum_i a_i (x_{i,c} - x_{i,c'}) <= y and the mirror image, then z for
        # mom: a per-pair part, x[., c], x[., c'] and y, plus a per-family one
        # that moves the last entry from y to z
        ends = np.array(ordered_pairs, dtype=np.int32).reshape(-1, 2)
        p, student = len(ordered_pairs), everyone.astype(np.int32)
        first = np.empty((p, 1, 2 * n + 1), dtype=np.int32)
        first[:, 0, :n] = x_column(student, ends[:, :1], n_c)
        first[:, 0, n:-1] = x_column(student, ends[:, 1:], n_c)
        first[:, 0, -1] = x_base + np.arange(p)
        to_z = np.zeros((4, 2 * n + 1), dtype=np.int32)
        to_z[2:, -1] = p
        aom = np.array([s.aom for s in students])
        mom = np.array([s.mom for s in students])
        a_diff = np.concatenate([aom, -aom])
        m_diff = np.concatenate([mom, -mom])
        coefs = np.column_stack([np.stack([a_diff, -a_diff, m_diff, -m_diff]), np.full(4, -1.0)])
        rows.add([(f, Sense.LE, 0.0) for f in ("aom_spread_pos", "aom_spread_neg",
                                               "mom_spread_pos", "mom_spread_neg")],
                 spread_keys, ((),), (first, to_z), coefs)

    if compact:
        # per cell: n - its cohort's x sum = 0, then w - k n >= -k(k+1)/2 for
        # k = 1 .. m - 1, one block per cohort size m, each cell's rows
        # m + 1, 2, 2, ... entries long
        cohorts = _cohorts(roster)
        new, prev = np.array(cells, dtype=np.int64).reshape(-1, 2).T
        size = np.array([len(cohorts[o]) for o in prev.tolist()])
        for m in np.unique(size).tolist():
            at = np.flatnonzero(size == m)
            ks = np.arange(1, m)
            cols = np.empty((len(at), 3 * m - 1), dtype=np.int32)
            cols[:, 0] = x_base + at
            cols[:, 1:m + 1] = x_column(np.array([cohorts[o] for o in prev[at].tolist()]),
                                        new[at, None], n_c)
            cols[:, m + 1::2] = (x_base + len(cells) + at)[:, None]
            cols[:, m + 2::2] = (x_base + at)[:, None]
            rows.add([("cohort", Sense.EQ, 0.0)]
                     + [(f"pairs_epi_{k}", Sense.GE, -k * (k + 1) / 2) for k in ks.tolist()],
                     [cell_keys[j] for j in at.tolist()], ((),), cols,
                     np.concatenate([[1.0], np.full(m, -1.0),
                                     np.column_stack([np.ones(m - 1), -ks]).ravel()]),
                     lengths=np.tile(np.array([m + 1] + [2] * (m - 1), dtype=np.int32), len(at)))

    if paper_pairs:
        # x[a, c], x[b, c] and u[a, b] as a per-pair part plus a per-company one
        pairs = np.array(pair_list, dtype=np.int64).reshape(-1, 2)
        first = np.column_stack([x_column(pairs, 0, n_c), x_base + np.arange(len(pair_list))])
        rows.add([("together", Sense.LE, 1.0)], pair_keys, company_keys,
                 (first[:, None, :], np.outer(companies, [1, 1, 0])), np.array([1.0, 1.0, -1.0]))

    return IpModel(variant, columns.build(), rows.build(), roster, x_rows)
