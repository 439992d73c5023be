"""On-disk formats: roster CSV, key-value config, assignment CSV, metadata.

A roster splits across two files.  The CSV holds one row per student
(scores, demographics, flags, previous company and battalion, sports);
the companion config holds everything that is not per-student: tolerance
windows, objective weights, conflict pairs, battalion layout, and company
subsets.  Both writers emit full-precision values and a fixed ordering,
so write-then-read reproduces an identical roster and repeated writes
are byte-identical.  docs/formats.md documents both files.
"""

from __future__ import annotations

import csv
import json
from operator import attrgetter
from pathlib import Path

from cohort_shuffle.roster import METRICS, WINDOWS, Assignment, Roster, Student, Tolerances

#: The roster CSV's 0/1 columns, as (column, ``Student`` attribute).
FLAG_COLUMNS = (("task_force", "is_task_force"), ("prior_service", "is_prior_service"),
                ("sapr", "is_sapr_guide"), ("international", "is_international"),
                ("batt_locked", "battalion_locked"))

ROSTER_FIELDS = ("id", *METRICS, "gender", "race", "old_company", "battalion",
                 *(col for col, _ in FLAG_COLUMNS), "sports")

ASSIGNMENT_FIELDS = ("id", "old_company", "new_company")

#: The companion config's keys: whole names, then the prefixes of keyed ones.
CONFIG_KEYS = ("num_companies", "battalions", "aom_weight", "mom_weight", "min_sapr",
               "num_intl", "sapr_companies", "intl_companies", "conflict_pair")
CONFIG_PREFIXES = (*(f"{side}_{name}_" for _, name, *_ in WINDOWS for side in ("min", "max")),
                   "max_athlete_")


def _csv_rows(path: str | Path, header: tuple[str, ...]):
    """Yield (line number, row) over a CSV file that starts with ``header``
    and has one cell per column on every row; anything else is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        for row in reader:
            if None in row or None in row.values():  # a long row or a short one
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(header)} cells, one per header column")
            yield reader.line_num, row


def _num(v: float) -> str:
    return repr(int(v)) if float(v) == int(v) else repr(float(v))


def write_roster(roster: Roster, roster_path: str | Path, config_path: str | Path) -> None:
    """Write the student CSV and its companion config."""
    scores, flags = attrgetter(*METRICS), attrgetter(*(attr for _, attr in FLAG_COLUMNS))
    with open(roster_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ROSTER_FIELDS)
        for s in roster.students:
            w.writerow([
                s.id, *map(_num, scores(s)), s.gender, s.race,
                s.old_company + 1, roster.battalion_of(s.old_company) + 1,
                *map(int, flags(s)), ";".join(sorted(s.sports)),
            ])
    Path(config_path).write_text("\n".join(config_lines(roster)) + "\n")


def config_lines(roster: Roster) -> list[str]:
    """Canonical companion-config serialization of the non-student data."""
    tol = roster.tolerances
    batt_of = [0] * roster.num_companies
    for b, group in enumerate(roster.battalions):
        for c in group:
            batt_of[c] = b + 1
    lines = [
        "# cohort-shuffle instance config",
        f"num_companies = {roster.num_companies}",
        "battalions = " + ",".join(str(b) for b in batt_of),
        f"aom_weight = {_num(roster.aom_weight)}",
        f"mom_weight = {_num(roster.mom_weight)}",
    ]
    for stem, name, *_ in WINDOWS:
        for side in ("min", "max"):
            bounds = getattr(tol, f"{stem}_{side}")
            lines.extend(f"{side}_{name}_{key} = {_num(bounds[key])}" for key in sorted(bounds))
    for key in sorted(tol.sport_max):
        lines.append(f"max_athlete_{key} = {tol.sport_max[key]}")
    if tol.min_sapr:
        lines.append(f"min_sapr = {tol.min_sapr}")
    if tol.num_intl is not None:
        lines.append(f"num_intl = {tol.num_intl}")
    if tol.sapr_companies is not None:
        lines.append("sapr_companies = " + ",".join(str(c + 1) for c in sorted(tol.sapr_companies)))
    if tol.intl_companies is not None:
        lines.append("intl_companies = " + ",".join(str(c + 1) for c in sorted(tol.intl_companies)))
    for a, b in roster.conflict_pairs:
        lines.append(f"conflict_pair = {a},{b}")
    return lines


def parse_config(path: str | Path) -> dict[str, list[str]]:
    """Key-value lines into a key -> values multimap; `#` starts a comment."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out.setdefault(key, []).append(val)
    return out


def _single(cfg: dict[str, list[str]], key: str, default: str | None = None) -> str | None:
    vals = cfg.get(key)
    if not vals:
        return default
    if len(vals) > 1:
        raise ValueError(f"config key {key!r} given more than once")
    return vals[0]


def read_roster(roster_path: str | Path, config_path: str | Path) -> Roster:
    """Read a roster CSV plus companion config back into a Roster."""
    cfg = parse_config(config_path)
    for key in cfg:
        if key not in CONFIG_KEYS and not key.startswith(CONFIG_PREFIXES):
            raise ValueError(f"{config_path}: unknown config key {key!r}")
    students: list[Student] = []
    batt_cells: list[tuple[int, int, int]] = []  # (line, previous company, battalion cell)
    def number(line: int, row: dict, column: str, cast):
        try:
            return cast(row[column])
        except ValueError:
            raise ValueError(f"{roster_path}:{line}: {column} cell {row[column]!r} is not "
                             f"{'an integer' if cast is int else 'a number'}") from None

    for line, row in _csv_rows(roster_path, ROSTER_FIELDS):
        scores = {m: number(line, row, m, float) for m in METRICS}
        old = number(line, row, "old_company", int) - 1
        students.append(Student(
            id=row["id"], gender=row["gender"], race=row["race"], old_company=old,
            sports=frozenset(v for v in row["sports"].split(";") if v), **scores,
            **{attr: row[col] == "1" for col, attr in FLAG_COLUMNS},
        ))
        batt_cells.append((line, old, number(line, row, "battalion", int)))

    declared = _single(cfg, "num_companies")
    num_companies = int(declared) if declared else (
        max(s.old_company for s in students) + 1 if students else 0)

    batt_line = _single(cfg, "battalions")
    if batt_line:
        batt_of = [int(v) for v in batt_line.split(",")]
        if len(batt_of) != num_companies:
            raise ValueError("battalions line must list one battalion per company")
    else:
        # a company outside range(num_companies) is left to validate_roster
        named = {c: b for _, c, b in batt_cells}
        if any(c not in named for c in range(num_companies)):
            raise ValueError("some companies have no students; add a 'battalions' "
                             "line to the config")
        batt_of = [named[c] for c in range(num_companies)]
    for line, c, b in batt_cells:
        if 0 <= c < num_companies and b != batt_of[c]:
            raise ValueError(f"{roster_path}:{line}: battalion {b} contradicts battalion "
                             f"{batt_of[c]} of company {c + 1}")
    groups: dict[int, list[int]] = {}
    for c, b in enumerate(batt_of):
        groups.setdefault(b, []).append(c)
    battalions = tuple(tuple(groups[b]) for b in sorted(groups))

    def fmap(prefix: str, cast) -> dict:
        return {key[len(prefix):]: cast(_single(cfg, key)) for key in cfg if key.startswith(prefix)}

    def companies(key: str) -> frozenset[int] | None:
        raw = _single(cfg, key)
        if raw is None:
            return None
        return frozenset(int(v) - 1 for v in raw.split(","))

    tol = Tolerances(
        **{f"{stem}_{side}": fmap(f"{side}_{name}_", cast)
           for stem, name, cast, *_ in WINDOWS for side in ("min", "max")},
        sport_max=fmap("max_athlete_", int),
        min_sapr=int(_single(cfg, "min_sapr", "0")),
        num_intl=(lambda v: int(v) if v is not None else None)(_single(cfg, "num_intl")),
        sapr_companies=companies("sapr_companies"),
        intl_companies=companies("intl_companies"),
    )

    conflicts = []
    for raw in cfg.get("conflict_pair", []):
        a, b = (part.strip() for part in raw.split(","))
        conflicts.append((a, b))

    return Roster(
        students=tuple(students),
        num_companies=num_companies,
        battalions=battalions,
        conflict_pairs=tuple(conflicts),
        tolerances=tol,
        aom_weight=float(_single(cfg, "aom_weight", "0.5")),
        mom_weight=float(_single(cfg, "mom_weight", "0.5")),
    )


def write_assignment(path: str | Path, roster: Roster, asg: Assignment) -> None:
    """Assignment CSV: one (id, old company, new company) row per student."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ASSIGNMENT_FIELDS)
        for s in roster.students:
            w.writerow([s.id, s.old_company + 1, asg[s.id] + 1])


def read_assignment(path: str | Path) -> Assignment:
    """Student id -> company index; an id on two rows is a ValueError."""
    out: Assignment = {}
    for line, row in _csv_rows(path, ASSIGNMENT_FIELDS):
        if row["id"] in out:
            raise ValueError(f"{path}:{line}: student {row['id']!r} appears on an earlier row")
        out[row["id"]] = int(row["new_company"]) - 1
    return out


def write_meta(path: str | Path, meta: dict) -> None:
    """JSON sidecar with sorted keys; identical runs give identical bytes."""
    Path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_meta(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
