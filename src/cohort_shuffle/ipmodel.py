"""Integer-program containers and LP-format text export.

The compiler in :mod:`cohort_shuffle.compiler` produces an :class:`IpModel`
holding a sparse row list over named variables.  The solver consumes the
same structure, so one model object can be solved, exported, or inspected
without recompilation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class ModelVariant(enum.Enum):
    """The three reassignment objectives."""

    MIN_SAME_COMPANY = "min"
    MERIT_DEVIATION = "dev"
    MIN_PAIRS = "pairs"


class VarKind(enum.Enum):
    BINARY = "binary"
    CONTINUOUS = "continuous"


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class Variable(NamedTuple):
    """One model column."""

    name: str
    kind: VarKind
    lower: float
    upper: float
    objective: float


class LinearRow(NamedTuple):
    """One sparse constraint row: ``sum(coef * var) sense rhs``.

    ``family`` tags which constraint family produced the row and ``key``
    identifies the instance within the family (company index, pair of
    student ids, and so on).  Row names are derived on demand instead of
    stored, which keeps large pair models compact.
    """

    family: str
    key: tuple
    cols: tuple[int, ...]
    coefs: tuple[float, ...]
    sense: Sense
    rhs: float

    def name(self) -> str:
        parts = "_".join(str(k) for k in self.key)
        return f"{self.family}_{parts}" if parts else self.family


@dataclass(frozen=True)
class IpModel:
    """A compiled instance: columns, rows, and decoding metadata.

    ``meta`` carries everything needed to interpret a solution vector
    without the original roster object: student ids, company labels,
    previous-company indices, merit scores for the deviation objective,
    the same-previous-company pair list for the pairs objective, and
    ``x_rows``, the count of leading rows over assignment columns alone.
    """

    variant: ModelVariant
    variables: tuple[Variable, ...]
    rows: tuple[LinearRow, ...]
    meta: dict = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def var_index(self, name: str) -> int:
        cache = self.meta.get("_var_index")
        if cache is None:
            cache = {v.name: j for j, v in enumerate(self.variables)}
            self.meta["_var_index"] = cache
        return cache[name]

    def binary_columns(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.kind is VarKind.BINARY]


def _format_terms(cols: tuple[int, ...], coefs: tuple[float, ...],
                  variables: tuple[Variable, ...]) -> list[str]:
    """Render ``+ 2 x[...]`` tokens, one per nonzero term."""
    toks: list[str] = []
    for j, a in zip(cols, coefs):
        if a == 0.0:
            continue
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        if mag == int(mag):
            coef = "" if mag == 1.0 else f"{int(mag)} "
        else:
            coef = f"{mag:.12g} "
        toks.append(f"{sign} {coef}{variables[j].name}")
    return toks


def _wrap(tokens: list[str], indent: str, width: int = 78) -> list[str]:
    lines: list[str] = []
    cur = indent
    for tok in tokens:
        if len(cur) + len(tok) + 1 > width and cur.strip():
            lines.append(cur)
            cur = indent
        cur += (" " if cur.strip() else "") + tok
    if cur.strip():
        lines.append(cur)
    return lines


def export_lp(model: IpModel) -> str:
    """Serialize a model to LP-format text.

    The dialect is the bracketed-name LP format accepted by common solver
    command lines; see ``docs/lp-format.md`` for the exact grammar emitted.
    Objective terms, rows, bounds, and binaries all appear in model order,
    so the export is deterministic for a fixed model.
    """
    out: list[str] = []
    out.append("\\ cohort-shuffle model export")
    out.append(f"\\ variant: {model.variant.value}")
    out.append("Minimize")

    obj_tokens: list[str] = []
    for v in model.variables:
        if v.objective == 0.0:
            continue
        sign = "-" if v.objective < 0 else "+"
        mag = abs(v.objective)
        coef = "" if mag == 1.0 else (f"{int(mag)} " if mag == int(mag) else f"{mag:.12g} ")
        obj_tokens.append(f"{sign} {coef}{v.name}")
    if not obj_tokens:
        obj_tokens = ["0"]
    if obj_tokens[0].startswith("+ "):
        obj_tokens[0] = obj_tokens[0][2:]
    out.extend(_wrap(["obj:"] + obj_tokens, " "))

    out.append("Subject To")
    for row in model.rows:
        toks = _format_terms(row.cols, row.coefs, model.variables)
        if not toks:
            toks = ["0"]
        elif toks[0].startswith("+ "):
            toks[0] = toks[0][2:]
        rhs = row.rhs
        rhs_txt = f"{int(rhs)}" if rhs == int(rhs) else f"{rhs:.12g}"
        toks = [f"{row.name()}:"] + toks + [row.sense.value, rhs_txt]
        out.extend(_wrap(toks, " "))

    out.append("Bounds")
    for v in model.variables:
        if v.kind is VarKind.BINARY:
            continue
        lo, hi = v.lower, v.upper
        lo_txt = "-inf" if lo == float("-inf") else (f"{int(lo)}" if lo == int(lo) else f"{lo:.12g}")
        hi_txt = "+inf" if hi == float("inf") else (f"{int(hi)}" if hi == int(hi) else f"{hi:.12g}")
        if lo == 0.0 and hi == float("inf"):
            out.append(f" 0 <= {v.name}")
        else:
            out.append(f" {lo_txt} <= {v.name} <= {hi_txt}")

    binaries = [model.variables[j].name for j in model.binary_columns()]
    if binaries:
        out.append("Binaries")
        out.extend(_wrap(binaries, " "))

    out.append("End")
    return "\n".join(out) + "\n"
