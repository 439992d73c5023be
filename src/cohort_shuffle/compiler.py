"""Compile a roster into one of the three reassignment integer programs.

Every variant shares the assignment core: one binary column per
(student, company) pair plus the composition windows from the roster's
tolerances.  The variants differ only in objective and extra structure:

* ``MIN_SAME_COMPANY`` puts cost 1 on every stay-put column.
* ``MERIT_DEVIATION`` forbids staying, adds one nonnegative spread
  variable per ordered company pair and merit metric, and minimizes the
  weighted sum of spreads.
* ``MIN_PAIRS`` forbids staying, adds one binary co-location variable per
  previously-acquainted student pair, and minimizes how many such pairs
  end up together again.

Column and row order is a pure function of the roster, so compiling the
same instance twice yields byte-identical exports.
"""

from __future__ import annotations

from cohort_shuffle.ipmodel import (
    IpModel,
    LinearRow,
    ModelVariant,
    Sense,
    VarKind,
    Variable,
)
from cohort_shuffle.roster import GENDERS, METRICS, QUALITIES, Roster

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


def acquainted_pairs(roster: Roster) -> list[tuple[int, int]]:
    """Student index pairs that shared a previous company, each once.

    Pairs are emitted grouped by previous company in roster order, the
    same order the pairs model creates its co-location columns.
    """
    by_company: dict[int, list[int]] = {}
    for idx, s in enumerate(roster.students):
        by_company.setdefault(s.old_company, []).append(idx)
    pairs: list[tuple[int, int]] = []
    for c in sorted(by_company):
        members = by_company[c]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.append((members[a], members[b]))
    return pairs


def assignment_block(roster: Roster, variant: ModelVariant) -> tuple[list[LinearRow], dict]:
    """The x-block rows (those over assignment columns alone) and the model
    metadata, whose ``pairs`` entry is left empty.

    These are exactly the families :func:`~cohort_shuffle.roster.check_feasible`
    audits: an assignment satisfies them all precisely when it passes.
    """
    students = roster.students
    n_c = roster.num_companies
    tol = roster.tolerances
    labels = roster.company_labels

    def xcol(i: int, c: int) -> int:
        return i * n_c + c

    rows: list[LinearRow] = []
    all_companies = tuple(range(n_c))

    for i, s in enumerate(students):
        rows.append(LinearRow("assign_once", (s.id,),
                              tuple(xcol(i, c) for c in all_companies),
                              (1.0,) * n_c, Sense.EQ, 1.0))

    for q in QUALITIES:
        members = [i for i, s in enumerate(students) if s.in_quality(q)]
        lo = tol.count_min.get(q)
        hi = tol.count_max.get(q)
        if lo is None and hi is None:
            continue
        for c in all_companies:
            cols = tuple(xcol(i, c) for i in members)
            coefs = (1.0,) * len(cols)
            if lo is not None:
                rows.append(LinearRow(f"count_min_{q}", (labels[c],), cols, coefs, Sense.GE, float(lo)))
            if hi is not None:
                rows.append(LinearRow(f"count_max_{q}", (labels[c],), cols, coefs, Sense.LE, float(hi)))

    for m in METRICS:
        lo = tol.merit_min.get(m)
        hi = tol.merit_max.get(m)
        if lo is None and hi is None:
            continue
        scores = [s.score(m) for s in students]
        for c in all_companies:
            cols = tuple(xcol(i, c) for i in range(len(students)))
            # homogenized: sum(score_i x) - bound * sum(x) vs 0
            if lo is not None:
                rows.append(LinearRow(f"merit_min_{m}", (labels[c],), cols,
                                      tuple(v - lo for v in scores), Sense.GE, 0.0))
            if hi is not None:
                rows.append(LinearRow(f"merit_max_{m}", (labels[c],), cols,
                                      tuple(v - hi for v in scores), Sense.LE, 0.0))

    def fraction_rows(family: str, key: str, members: list[int],
                      lo: float | None, hi: float | None) -> None:
        member_set = set(members)
        for c in all_companies:
            cols = tuple(xcol(i, c) for i in range(len(students)))
            if lo is not None:
                coefs = tuple((1.0 - lo) if i in member_set else -lo for i in range(len(students)))
                rows.append(LinearRow(f"{family}_min_{key}", (labels[c],), cols, coefs, Sense.GE, 0.0))
            if hi is not None:
                coefs = tuple((1.0 - hi) if i in member_set else -hi for i in range(len(students)))
                rows.append(LinearRow(f"{family}_max_{key}", (labels[c],), cols, coefs, Sense.LE, 0.0))

    for g in GENDERS:
        lo = tol.gender_min.get(g)
        hi = tol.gender_max.get(g)
        if lo is None and hi is None:
            continue
        fraction_rows("gender", g, [i for i, s in enumerate(students) if s.gender == g], lo, hi)

    for e in sorted(set(tol.race_min) | set(tol.race_max)):
        lo = tol.race_min.get(e)
        hi = tol.race_max.get(e)
        fraction_rows("race", e, [i for i, s in enumerate(students) if s.race == e], lo, hi)

    for v in sorted(tol.sport_max):
        cap = tol.sport_max[v]
        members = [i for i, s in enumerate(students) if v in s.sports]
        if not members:
            continue
        for c in all_companies:
            cols = tuple(xcol(i, c) for i in members)
            rows.append(LinearRow(f"sport_cap_{v}", (labels[c],), cols,
                                  (1.0,) * len(cols), Sense.LE, float(cap)))

    index_of = {s.id: i for i, s in enumerate(students)}
    for a, b in roster.conflict_pairs:
        ia, ib = index_of[a], index_of[b]
        for c in all_companies:
            rows.append(LinearRow("conflict", (a, b, labels[c]),
                                  (xcol(ia, c), xcol(ib, c)), (1.0, 1.0), Sense.LE, 1.0))

    if tol.min_sapr > 0:
        guides = [i for i, s in enumerate(students) if s.is_sapr_guide]
        targets = all_companies if tol.sapr_companies is None else tuple(sorted(tol.sapr_companies))
        for c in targets:
            cols = tuple(xcol(i, c) for i in guides)
            rows.append(LinearRow("sapr_min", (labels[c],), cols,
                                  (1.0,) * len(cols), Sense.GE, float(tol.min_sapr)))

    if tol.num_intl is not None:
        intl = [i for i, s in enumerate(students) if s.is_international]
        targets = all_companies if tol.intl_companies is None else tuple(sorted(tol.intl_companies))
        for c in targets:
            cols = tuple(xcol(i, c) for i in intl)
            rows.append(LinearRow("intl_count", (labels[c],), cols,
                                  (1.0,) * len(cols), Sense.EQ, float(tol.num_intl)))

    no_stay = variant is not ModelVariant.MIN_SAME_COMPANY
    for i, s in enumerate(students):
        if not s.battalion_locked:
            continue
        batt = roster.battalions[roster.battalion_of(s.old_company)]
        targets = [c for c in sorted(batt) if not (no_stay and c == s.old_company)]
        cols = tuple(xcol(i, c) for c in targets)
        rows.append(LinearRow("battalion_lock", (s.id,), cols, (1.0,) * len(cols), Sense.EQ, 1.0))

    if variant is not ModelVariant.MIN_SAME_COMPANY:
        for i, s in enumerate(students):
            rows.append(LinearRow("no_stay", (s.id,), (xcol(i, s.old_company),), (1.0,), Sense.EQ, 0.0))

    meta = {
        "variant": variant.value,
        "student_ids": tuple(s.id for s in students),
        "company_labels": labels,
        "old_company": tuple(s.old_company for s in students),
        "aom_scores": tuple(s.aom for s in students),
        "mom_scores": tuple(s.mom for s in students),
        "aom_weight": roster.aom_weight,
        "mom_weight": roster.mom_weight,
        "pairs": (),
    }
    return rows, meta


def compile_model(roster: Roster, variant: ModelVariant) -> IpModel:
    """Build the requested variant as a sparse row model over named columns."""
    if not isinstance(variant, ModelVariant):
        raise ValueError(f"unknown model variant: {variant!r}")
    if not roster.students:
        raise ValueError("cannot compile an empty roster")
    if variant is not ModelVariant.MIN_SAME_COMPANY and roster.num_companies < 2:
        raise ValueError("forbidding same-company reassignment needs at least 2 companies")
    students = roster.students
    n_c = roster.num_companies
    labels = roster.company_labels

    variables: list[Variable] = []
    for s in students:
        for c in range(n_c):
            cost = 0.0
            if variant is ModelVariant.MIN_SAME_COMPANY and c == s.old_company:
                cost = 1.0
            variables.append(Variable(f"x[{s.id},{labels[c]}]", VarKind.BINARY, 0.0, 1.0, cost))

    ordered_pairs = [(c, c2) for c in range(n_c) for c2 in range(n_c) if c2 != c]
    y_base = z_base = u_base = -1
    if variant is ModelVariant.MERIT_DEVIATION:
        y_base = len(variables)
        for c, c2 in ordered_pairs:
            variables.append(Variable(f"y[{labels[c]},{labels[c2]}]", VarKind.CONTINUOUS,
                                      0.0, INF, roster.aom_weight))
        z_base = len(variables)
        for c, c2 in ordered_pairs:
            variables.append(Variable(f"z[{labels[c]},{labels[c2]}]", VarKind.CONTINUOUS,
                                      0.0, INF, roster.mom_weight))

    pair_list: list[tuple[int, int]] = []
    if variant is ModelVariant.MIN_PAIRS:
        pair_list = acquainted_pairs(roster)
        u_base = len(variables)
        for a, b in pair_list:
            variables.append(Variable(f"u[{students[a].id},{students[b].id}]",
                                      VarKind.BINARY, 0.0, 1.0, 1.0))

    rows, meta = assignment_block(roster, variant)
    meta["x_rows"] = len(rows)
    all_companies = tuple(range(n_c))

    if variant is ModelVariant.MERIT_DEVIATION:
        aom = [s.aom for s in students]
        mom = [s.mom for s in students]
        n = len(students)
        for p, (c, c2) in enumerate(ordered_pairs):
            cols = tuple(x_column(i, c, n_c) for i in range(n)) + tuple(x_column(i, c2, n_c) for i in range(n))
            ycol = (y_base + p,)
            zcol = (z_base + p,)
            a_diff = tuple(aom) + tuple(-v for v in aom)
            m_diff = tuple(mom) + tuple(-v for v in mom)
            key = (labels[c], labels[c2])
            # sum_i a_i (x_{i,c} - x_{i,c'}) <= y and the mirror image
            rows.append(LinearRow("aom_spread_pos", key, cols + ycol, a_diff + (-1.0,), Sense.LE, 0.0))
            rows.append(LinearRow("aom_spread_neg", key, cols + ycol,
                                  tuple(-v for v in a_diff) + (-1.0,), Sense.LE, 0.0))
            rows.append(LinearRow("mom_spread_pos", key, cols + zcol, m_diff + (-1.0,), Sense.LE, 0.0))
            rows.append(LinearRow("mom_spread_neg", key, cols + zcol,
                                  tuple(-v for v in m_diff) + (-1.0,), Sense.LE, 0.0))

    if variant is ModelVariant.MIN_PAIRS:
        for p, (a, b) in enumerate(pair_list):
            ida, idb = students[a].id, students[b].id
            for c in all_companies:
                rows.append(LinearRow("together", (ida, idb, labels[c]),
                                      (x_column(a, c, n_c), x_column(b, c, n_c), u_base + p),
                                      (1.0, 1.0, -1.0), Sense.LE, 1.0))

    meta["pairs"] = tuple((students[a].id, students[b].id) for a, b in pair_list)
    return IpModel(variant, tuple(variables), tuple(rows), meta)
