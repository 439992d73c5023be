"""Integer-program containers and LP-format text export.

The compiler in :mod:`cohort_shuffle.compiler` produces an :class:`IpModel`
whose columns live in one :class:`ColumnStore` (a kind, bounds and an
objective coefficient per column) and whose rows live in one
:class:`RowStore`: CSR arrays over those columns plus per-row sense and
right-hand side.  Both name their entries from a small block table, so no
per-row object exists until someone iterates the rows.  The simplex,
the move evaluator and the LP export all read the same arrays, so one model
object can be solved, exported, or inspected without recompilation.
"""

from __future__ import annotations

import bisect
import enum
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from cohort_shuffle.roster import Roster


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


class LinearRow(NamedTuple):
    """One sparse constraint row: ``sum(coef * var) sense rhs``.

    ``family`` tags which constraint family produced the row and ``key``
    identifies the instance within the family (company index, pair of
    student ids, and so on).  A :class:`RowStore` builds these on access.
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


#: ``RowStore.sense`` holds indices into this tuple
SENSES = (Sense.LE, Sense.GE, Sense.EQ)


class RowStore:
    """Constraint rows as one CSR matrix with a sense and right-hand side per
    row: row ``r`` is ``sum(coefs[p] * x[cols[p]])`` over ``p`` in
    ``indptr[r]:indptr[r + 1]``, compared by ``SENSES[sense[r]]`` with
    ``rhs[r]``.  The arrays are read-only.

    ``blocks`` names the rows.  Block ``(start, families, outer, inner)``
    covers the rows from ``start`` to the next block, families cycling
    fastest, then inner keys, then outer keys: row ``start + (o * len(inner)
    + i) * len(families) + f`` is family ``families[f]`` with key ``outer[o]
    + inner[i]``.  Iteration builds each row's :class:`LinearRow`; a slice
    with step 1 is a store over those rows that shares the arrays, its row 0
    being row ``offset`` of the blocks.

    ``lo`` and ``hi`` are new arrays of each row's interval for its activity,
    decoded from ``sense`` and ``rhs``: ``[-inf, rhs]``, ``[rhs, inf]`` or
    ``[rhs, rhs]``.
    """

    def __init__(self, indptr: np.ndarray, cols: np.ndarray, coefs: np.ndarray,
                 sense: np.ndarray, rhs: np.ndarray, blocks: Sequence[tuple],
                 offset: int = 0) -> None:
        for array in (indptr, cols, coefs, sense, rhs):
            array.flags.writeable = False
        self.indptr, self.cols, self.coefs, self.sense, self.rhs = indptr, cols, coefs, sense, rhs
        self.blocks, self.offset = tuple(blocks), offset
        self._starts = [block[0] for block in self.blocks]

    def __len__(self) -> int:
        return len(self.rhs)

    @property
    def lo(self) -> np.ndarray:
        return np.where(self.sense == SENSES.index(Sense.LE), -math.inf, self.rhs)

    @property
    def hi(self) -> np.ndarray:
        return np.where(self.sense == SENSES.index(Sense.GE), math.inf, self.rhs)

    def __getitem__(self, rows: slice) -> RowStore:
        a, b, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("a row slice takes step 1")
        b = max(a, b)
        lo, hi = self.indptr[a], self.indptr[b]
        return RowStore(self.indptr[a:b + 1] - lo, self.cols[lo:hi], self.coefs[lo:hi],
                        self.sense[a:b], self.rhs[a:b], self.blocks, self.offset + a)

    def __iter__(self) -> Iterator[LinearRow]:
        # a few thousand rows at a time as Python lists: row-by-row numpy
        # indexing would cost more than the rows themselves
        for a in range(0, len(self), 4096):
            chunk = self[a:a + 4096]
            ptr = chunk.indptr.tolist()
            cols, coefs = chunk.cols.tolist(), chunk.coefs.tolist()
            for r, (sense, rhs) in enumerate(zip(chunk.sense.tolist(), chunk.rhs.tolist())):
                yield LinearRow(*chunk._name_parts(r), tuple(cols[ptr[r]:ptr[r + 1]]),
                                tuple(coefs[ptr[r]:ptr[r + 1]]), SENSES[sense], rhs)

    def _name_parts(self, r: int) -> tuple[str, tuple]:
        """Family and key of row ``r``."""
        index = r + self.offset
        start, families, outer, inner = self.blocks[bisect.bisect_right(self._starts, index) - 1]
        j, f = divmod(index - start, len(families))
        o, i = divmod(j, len(inner))
        return families[f], tuple(outer[o]) + tuple(inner[i])


class RowBuilder:
    """Row blocks appended in model order, packed into one :class:`RowStore`.

    A block is kept as given, its coefficients, senses and right-hand sides
    as patterns; :meth:`build` allocates each array once and fills it block
    by block."""

    def __init__(self) -> None:
        self.parts: list[tuple] = []
        self.blocks: list[tuple] = []
        self.count = self.nnz = 0

    def add(self, specs: Sequence[tuple[str, Sense, float]], outer: Sequence[tuple],
            inner: Sequence[tuple], cols, coefs, lengths: Sequence[int] | None = None) -> None:
        """Rows for every outer key, inner key and ``(family, sense, rhs)`` spec,
        specs cycling fastest (see :class:`RowStore`).  ``cols`` holds the
        column indices of one row along its last axis, rows in order along the
        others, with ``coefs`` broadcast to it; a pair of integer arrays
        stands for their broadcast sum.  Rows of differing lengths come
        flattened, with their ``lengths``."""
        n_rows = len(specs) * len(outer) * len(inner)
        if n_rows == 0:
            return
        terms = cols if isinstance(cols, tuple) else (cols, 0)
        shape = np.broadcast_shapes(*map(np.shape, terms))
        families, senses, rhs = zip(*specs)
        entries = slice(self.nnz, self.nnz + math.prod(shape))
        self.parts.append((slice(self.count, self.count + n_rows), entries, shape, terms, coefs,
                           shape[-1] if lengths is None else lengths,
                           [SENSES.index(s) for s in senses], rhs))
        self.blocks.append((self.count, families, outer, inner))
        self.count, self.nnz = self.count + n_rows, entries.stop

    def build(self) -> RowStore:
        indptr = np.zeros(self.count + 1, dtype=np.int64)
        cols, coefs = np.empty(self.nnz, dtype=np.int32), np.empty(self.nnz)
        sense, rhs = np.empty(self.count, dtype=np.int8), np.empty(self.count)
        for rows, entries, shape, terms, block_coefs, lengths, senses, rhs_pattern in self.parts:
            np.add(*terms, out=cols[entries].reshape(shape), casting="unsafe")
            coefs[entries].reshape(shape)[...] = block_coefs
            indptr[1:][rows] = lengths
            sense[rows].reshape(-1, len(senses))[...] = senses
            rhs[rows].reshape(-1, len(senses))[...] = rhs_pattern
        np.cumsum(indptr, out=indptr)
        return RowStore(indptr, cols, coefs, sense, rhs, self.blocks)


#: ``ColumnStore.kind`` holds indices into this tuple
VARKINDS = (VarKind.BINARY, VarKind.CONTINUOUS)


def _column_name(prefix: str, key: tuple) -> str:
    return f"{prefix}[{','.join(str(part) for part in key)}]" if key else prefix


class ColumnStore:
    """Model columns as arrays: column ``j`` is a ``VARKINDS[kind[j]]``
    variable within ``[lower[j], upper[j]]`` with objective coefficient
    ``objective[j]``.  The arrays are read-only.

    ``blocks`` names the columns the way :class:`RowStore` blocks name rows,
    with one family per block, the name prefix: column ``start + o *
    len(inner) + i`` of block ``(start, (prefix,), outer, inner)`` is named
    ``prefix[k1,k2,...]`` over the parts of the key ``outer[o] + inner[i]``,
    or ``prefix`` alone when that key is empty.
    """

    def __init__(self, kind: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                 objective: np.ndarray, blocks: Sequence[tuple]) -> None:
        for array in (kind, lower, upper, objective):
            array.flags.writeable = False
        self.kind, self.lower, self.upper, self.objective = kind, lower, upper, objective
        self.blocks = tuple(blocks)

    def __len__(self) -> int:
        return len(self.kind)

    def names(self) -> Iterator[str]:
        """Every column's name, in column order."""
        for _, (prefix,), outer, inner in self.blocks:
            for o in outer:
                for i in inner:
                    yield _column_name(prefix, tuple(o) + tuple(i))


class ColumnBuilder:
    """Column blocks appended in model order, packed into one :class:`ColumnStore`."""

    def __init__(self) -> None:
        self.parts = [(np.zeros(0, dtype=np.int8), np.zeros(0), np.zeros(0), np.zeros(0))]
        self.blocks: list[tuple] = []
        self.count = 0

    def add(self, prefix: str, outer: Sequence[tuple], inner: Sequence[tuple], kind: VarKind,
            lower, upper, objective) -> None:
        """Columns for every outer and inner key (see :class:`ColumnStore`),
        ``lower``, ``upper`` and ``objective`` broadcast over them."""
        n_cols = len(outer) * len(inner)
        if n_cols == 0:
            return
        self.parts.append((np.full(n_cols, VARKINDS.index(kind), dtype=np.int8),
                           *(np.broadcast_to(np.asarray(v, dtype=float), n_cols)
                             for v in (lower, upper, objective))))
        self.blocks.append((self.count, (prefix,), outer, inner))
        self.count += n_cols

    def build(self) -> ColumnStore:
        return ColumnStore(*(np.concatenate(part) for part in zip(*self.parts)), self.blocks)


@dataclass(frozen=True)
class IpModel:
    """A compiled instance: columns, rows, and the roster they came from.

    ``variables`` and ``rows`` come packed by a :class:`ColumnBuilder` and a
    :class:`RowBuilder`.  ``roster`` is the roster the model was compiled
    from, which decodes a solution vector into students and companies; it is
    None only for a model built by hand.  The first ``x_rows`` rows lie over
    assignment columns alone.
    """

    variant: ModelVariant
    variables: ColumnStore
    rows: RowStore
    roster: Roster | None = None
    x_rows: int = 0

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def binary_columns(self) -> list[int]:
        return np.flatnonzero(self.variables.kind == VARKINDS.index(VarKind.BINARY)).tolist()


def _number(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return f"{int(v)}" if v == int(v) else f"{v:.12g}"


def _terms(cols: Sequence[int], coefs: Sequence[float], names: Sequence[str]) -> list[str]:
    """Render ``2 x[...] - y[...]`` tokens, one per nonzero term, or ``0``."""
    toks = [f"{'-' if a < 0 else '+'} {'' if abs(a) == 1.0 else _number(abs(a)) + ' '}"
            f"{names[j]}" for j, a in zip(cols, coefs) if a != 0.0]
    if not toks:
        return ["0"]
    if toks[0].startswith("+ "):
        toks[0] = toks[0][2:]
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
    variables = model.variables
    names = list(variables.names())
    out = ["\\ cohort-shuffle model export", f"\\ variant: {model.variant.value}", "Minimize"]
    out.extend(_wrap(["obj:"] + _terms(range(len(names)), variables.objective.tolist(), names),
                     " "))
    out.append("Subject To")
    for row in model.rows:
        out.extend(_wrap([f"{row.name()}:", *_terms(row.cols, row.coefs, names),
                          row.sense.value, _number(row.rhs)], " "))
    out.append("Bounds")
    binary = VARKINDS.index(VarKind.BINARY)
    for name, kind, lower, upper in zip(names, variables.kind.tolist(), variables.lower.tolist(),
                                        variables.upper.tolist()):
        if kind == binary:
            continue
        if lower == 0.0 and upper == math.inf:
            out.append(f" 0 <= {name}")
        else:
            out.append(f" {_number(lower)} <= {name} <= {_number(upper)}")

    binaries = [names[j] for j in model.binary_columns()]
    if binaries:
        out.append("Binaries")
        out.extend(_wrap(binaries, " "))

    out.append("End")
    return "\n".join(out) + "\n"
