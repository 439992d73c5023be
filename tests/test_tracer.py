"""The benchmark tracer in perfbench/ still wraps the calls a solve makes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from cohort_shuffle import (
    ModelVariant,
    SolveOptions,
    compile_model,
    desk_spec,
    generate,
    heuristics,
    pipeline,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pairs_solve_counts_local_search():
    tracer = load_tracer_module().Tracer()
    roster = generate(desk_spec(), seed=7)
    tracer.install()
    try:
        tracer.begin_solve(0)
        solved = pipeline.solve_roster(roster, ModelVariant.MIN_PAIRS,
                                       SolveOptions(workers=1, node_limit=0))
        tracer.end_solve()
    finally:
        tracer.uninstall()
    assert solved.certificate.ok
    assert tracer.counts["heuristics.local_search.calls"] >= 1
    assert pipeline.local_search is heuristics.local_search
    # the model counters read the row store the same solve compiles, the
    # compact form
    model = compile_model(roster, ModelVariant.MIN_PAIRS, form="compact")
    assert tracer.counts["compiler.rows"] == model.num_rows
    assert tracer.counts["compiler.nnz"] == len(model.rows.coefs)
