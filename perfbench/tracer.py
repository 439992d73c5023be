"""Spans and counts around the calls the solve pipeline makes into each layer.

The tracer patches module attributes for the duration of a traced run and
puts the originals back afterwards; nothing under ``src/`` knows about it.
Spans are kept in memory as ``(name, start, end, parent, solve_id)`` and a
layer's self time is its span's duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).  Calls made
outside a solve, such as the benchmark's own output checks, pass through
unrecorded.

Quantities that need extra work to read, such as objective scores and model
sizes, are captured as references inside the wrapper and evaluated by
:meth:`Tracer.end_solve`, after the solve's root span has closed, so that
work lands in no span.
"""

from __future__ import annotations

import collections
import json
import time
from pathlib import Path

from cohort_shuffle import bounds, branch_bound, fileio, pipeline, reporting
from cohort_shuffle.pipeline import assignment_objective
from cohort_shuffle.simplex import LpStatus, SimplexEngine

#: span name -> (owner, attribute) of every call the tracer wraps
WRAPPED = {
    "fileio.read": [(fileio, "read_roster")],
    "fileio.write": [(fileio, "write_assignment"), (fileio, "write_meta")],
    "reporting.report": [(reporting, "company_stats"), (reporting, "render")],
    "pipeline": [(pipeline, "solve_roster")],
    "roster.validate": [(pipeline, "validate_roster")],
    "roster.check_feasible": [(pipeline, "check_feasible"), (bounds, "check_feasible")],
    "compiler.compile": [(pipeline, "compile_model")],
    "heuristics.warm_start": [(pipeline, "build_warm_start")],
    "heuristics.local_search": [(pipeline, "local_search")],
    "bounds.pairs_bound": [(pipeline, "pairs_lower_bound")],
    "bounds.certify": [(pipeline, "certify")],
    "branch_bound.solve_ip": [(pipeline, "solve_ip")],
    "simplex.standard_form": [(branch_bound, "standard_form")],
    "simplex.lp": [(SimplexEngine, "solve")],
}

#: span name -> self-time metric; together they cover the whole solve span
SELF_METRICS = {
    "solve": "trace.unattributed_s",
    "fileio.read": "fileio.read_s",
    "fileio.write": "fileio.write_s",
    "reporting.report": "reporting.report_s",
    "pipeline": "pipeline.self_s",
    "roster.validate": "roster.validate_s",
    "roster.check_feasible": "roster.check_feasible_s",
    "compiler.compile": "compiler.compile_s",
    "heuristics.warm_start": "heuristics.warm_start_self_s",
    "heuristics.local_search": "heuristics.local_search_s",
    "bounds.pairs_bound": "bounds.pairs_bound_s",
    "bounds.certify": "bounds.certify_s",
    "branch_bound.solve_ip": "branch_bound.self_s",
    "simplex.standard_form": "simplex.standard_form_s",
    "simplex.lp": "simplex.lp_s",
}

#: span name -> inclusive-time metric
INCL_METRICS = {
    "heuristics.warm_start": "heuristics.warm_start_s",
    "branch_bound.solve_ip": "branch_bound.solve_ip_s",
}


class Tracer:
    """In-memory span and counter store for one traced benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._stack: list[int] = []
        self._solve_id: int | None = None
        self._root = -1
        self._pending: list[tuple] = []
        self._originals: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        for name, targets in WRAPPED.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._solve_id is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._observe(name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # --- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._solve_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        name, start, _, parent, solve_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, solve_id)
        self._stack.pop()

    def begin_solve(self, solve_id: int) -> None:
        self._solve_id = solve_id
        self._root = self._open("solve")

    def end_solve(self) -> None:
        """Close the solve's root span, then score what the wrappers captured."""
        self._close(self._root)
        self._solve_id = None
        for kind, *data in self._pending:
            if kind == "model":
                (model,) = data
                self.counts["compiler.rows"] += model.num_rows
                self.counts["compiler.cols"] += model.num_vars
                self.counts["compiler.nnz"] += sum(len(row.cols) for row in model.rows)
            elif kind == "warm":
                roster, variant, asg = data
                self.counts["heuristics.warm_objective_sum"] += assignment_objective(
                    roster, asg, variant)
            else:
                roster, variant, start, result = data
                before = assignment_objective(roster, start, variant)
                after = assignment_objective(roster, result, variant)
                self.counts["heuristics.local_search_improved"] += after < before
        self._pending.clear()

    # --- counts at the boundaries ------------------------------------------

    def _observe(self, name: str, args: tuple, kwargs: dict, out) -> None:
        c = self.counts
        c[name + ".calls"] += 1
        if name == "compiler.compile":
            self._pending.append(("model", out))
        elif name == "heuristics.warm_start" and out is not None:
            self._pending.append(("warm", args[0], args[1], out))
        elif name == "heuristics.local_search":
            self._pending.append(("ls", args[0], args[2], args[1], out))
        elif name == "branch_bound.solve_ip":
            c["branch_bound.nodes"] += out.stats.nodes
        elif name == "simplex.lp":
            c["simplex.lp_iterations"] += out.iterations
            c["simplex.lp_optimal"] += out.status is LpStatus.OPTIMAL
            c["simplex.lp_retries"] += bool(kwargs.get("stable", False))

    # --- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self and inclusive time per metric over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys([*SELF_METRICS.values(), *INCL_METRICS.values()], 0.0)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            out[SELF_METRICS[name]] += end - start - children
            if name in INCL_METRICS:
                out[INCL_METRICS[name]] += end - start
        return out

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics for one pass over the workload's solves."""
        c = self.counts
        times = self.self_times()
        per_pass = {
            **times,
            "roster.check_feasible_calls": c["roster.check_feasible.calls"],
            "heuristics.local_search_calls": c["heuristics.local_search.calls"],
            "heuristics.warm_objective_sum": c["heuristics.warm_objective_sum"],
            "compiler.rows": c["compiler.rows"],
            "compiler.cols": c["compiler.cols"],
            "compiler.nnz": c["compiler.nnz"],
            "simplex.lp_solves": c["simplex.lp.calls"],
            "simplex.lp_iterations": c["simplex.lp_iterations"],
            "simplex.lp_retries": c["simplex.lp_retries"],
            "branch_bound.nodes": c["branch_bound.nodes"],
            "trace.spans": len(self.spans),
        }
        m = {k: v / passes for k, v in per_pass.items()}
        lps, iters = c["simplex.lp.calls"], c["simplex.lp_iterations"]
        calls = c["heuristics.local_search.calls"]
        m["heuristics.local_search_improved_share"] = (
            c["heuristics.local_search_improved"] / calls if calls else 0.0)
        m["simplex.iterations_per_lp"] = iters / lps if lps else 0.0
        m["simplex.ms_per_iteration"] = 1000.0 * times["simplex.lp_s"] / iters if iters else 0.0
        m["simplex.lp_optimal_share"] = c["simplex.lp_optimal"] / lps if lps else 0.0
        return m

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, solve_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve_id}) + "\n")
