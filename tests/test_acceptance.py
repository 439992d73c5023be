"""Acceptance checklist for the reassignment toolkit.

Every test prints one ``[acceptance] criterion N: PASS/FAIL`` line on the
real stdout so a full run reads as a checklist even under capture.  The
expected values are frozen literals or independent recomputations
(exhaustive enumeration, pigeonhole counts, closed-form dimension
formulas); nothing is derived from the code under test.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import pytest

import cohort_shuffle as cs
from cohort_shuffle import ModelVariant, SolveOptions, SolveStatus, Tolerances
from conftest import mk_student, oracle_best, oracle_instance

MIN = ModelVariant.MIN_SAME_COMPANY
DEV = ModelVariant.MERIT_DEVIATION
PAIRS = ModelVariant.MIN_PAIRS

# Reference class shapes bundled with the generator, with the expected
# per-company pair counts and totals frozen independently of the code.
REFERENCE_PAIRS_2023 = (8, 6, 9, 8, 9, 6, 8, 9, 10, 7, 10, 11, 11, 7, 4,
                        8, 9, 10, 4, 7, 8, 7, 7, 6, 6, 8, 5, 9, 4, 6)
REFERENCE_PAIRS_2024 = (10, 6, 8, 9, 10, 13, 7, 10, 9, 11, 11, 10, 11, 9, 11,
                        10, 10, 10, 10, 10, 11, 10, 11, 10, 9, 11, 9, 10, 8, 11)
REFERENCE_TOTAL_2023 = 227
REFERENCE_TOTAL_2024 = 295

ORACLE_INSTANCES = 200
DESK_MIN_SEEDS = (101, 202, 303, 404, 505)
DESK_DEV_SEEDS = (101, 202)
DESK_DEV_NODE_LIMIT = 12


def _report(capsys, num: int, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {num:2d}: {verdict} - {detail}", flush=True)
    return ok


def _roster_from_sizes(sizes: tuple[int, ...]) -> cs.Roster:
    students = []
    i = 0
    for company, size in enumerate(sizes):
        for _ in range(size):
            students.append(mk_student(i, company))
            i += 1
    return cs.Roster(students=tuple(students), num_companies=len(sizes),
                     battalions=(tuple(range(len(sizes))),),
                     conflict_pairs=(), tolerances=Tolerances())


# --- shared solve sweeps (consumed by several criteria) ----------------------

@pytest.fixture(scope="module")
def oracle_sweep():
    """Solve every tiny randomized instance under all three variants.

    Returns the per-solve records plus the wall time of the whole sweep:
    (seed, variant, roster, oracle objective, solver result, root LP).
    """
    t0 = time.perf_counter()
    records = []
    for seed in range(ORACLE_INSTANCES):
        roster = oracle_instance(seed)
        for variant in ModelVariant:
            expected = oracle_best(roster, variant)
            model = cs.compile_model(roster, variant)
            result = cs.solve_ip(model)
            root = cs.solve_lp(model)
            records.append((seed, variant, roster, expected, result, root))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_min_runs():
    """Cold MIN solves on generated desk instances, with wall times."""
    runs = []
    for seed in DESK_MIN_SEEDS:
        roster = cs.generate(cs.desk_spec(), seed=seed)
        identity = {s.id: s.old_company for s in roster.students}
        instance_feasible = not cs.check_feasible(roster, identity).violations
        model = cs.compile_model(roster, MIN)
        t0 = time.perf_counter()
        result = cs.solve_ip(model)
        elapsed = time.perf_counter() - t0
        runs.append((seed, roster, instance_feasible, result, elapsed))
    return runs


@pytest.fixture(scope="module")
def desk_dev_runs():
    """Node-limited warm DEV solves on desk instances."""
    runs = []
    for seed in DESK_DEV_SEEDS:
        roster = cs.generate(cs.desk_spec(), seed=seed)
        model = cs.compile_model(roster, DEV)
        warm = cs.rotate_within_battalions(roster, shift=1)
        result = cs.solve_ip(model, SolveOptions(node_limit=DESK_DEV_NODE_LIMIT,
                                                 warm_start=warm))
        runs.append((seed, roster, model, result))
    return runs


@pytest.fixture(scope="module")
def pairs_sweep_runs():
    """PAIRS pipeline runs on balanced bare instances, with their deals.

    Covers every company count in 3..8 with every uniform size that
    exceeds the number of destinations but at most doubles it.
    """
    runs = []
    for n_c in range(3, 9):
        for size in range(n_c, 2 * (n_c - 1) + 1):
            roster = cs.generate(cs.balanced_spec(n_c, size), seed=n_c * 100 + size)
            deal = cs.cyclic_deal(roster)
            pipeline = cs.solve_roster(roster, PAIRS)
            runs.append((n_c, size, roster, deal, pipeline))
    return runs


# --- the checklist ------------------------------------------------------------

def test_pairs_bound_matches_reference_tables(capsys):
    t0 = time.perf_counter()
    report_2023 = cs.pairs_lower_bound(_roster_from_sizes(cs.reference_company_sizes(2023)))
    report_2024 = cs.pairs_lower_bound(_roster_from_sizes(cs.reference_company_sizes(2024)))
    elapsed = time.perf_counter() - t0

    per_2023 = tuple(bound for _, bound in report_2023.per_company)
    per_2024 = tuple(bound for _, bound in report_2024.per_company)
    ok = (report_2023.total == REFERENCE_TOTAL_2023
          and report_2024.total == REFERENCE_TOTAL_2024
          and per_2023 == REFERENCE_PAIRS_2023
          and per_2024 == REFERENCE_PAIRS_2024
          and elapsed < 1.0)
    assert _report(capsys, 1, ok,
                   f"totals {report_2023.total}/{report_2024.total} "
                   f"(expect {REFERENCE_TOTAL_2023}/{REFERENCE_TOTAL_2024}), "
                   f"per-company columns match entry-by-entry, {elapsed:.3f}s")


def test_gap_formula_closes_at_the_bound(capsys):
    gap_2023 = cs.optimality_gap(227.0, 227.0)
    gap_2024 = cs.optimality_gap(295.0, 295.0)
    ok = gap_2023 == 0.0 and gap_2024 == 0.0
    assert _report(capsys, 2, ok, f"gap(227,227)={gap_2023}%, gap(295,295)={gap_2024}%")


def test_solver_matches_exhaustive_enumeration(capsys, oracle_sweep):
    records, elapsed = oracle_sweep
    mismatches = []
    infeasible = 0
    for seed, variant, _, expected, result, _ in records:
        if expected is None:
            infeasible += 1
            if result.status is not SolveStatus.INFEASIBLE:
                mismatches.append((seed, variant.value, "feasibility verdict"))
        elif result.status is not SolveStatus.PROVEN_OPTIMAL:
            mismatches.append((seed, variant.value, result.status.value))
        elif result.objective != expected:
            mismatches.append((seed, variant.value,
                               f"{result.objective} != {expected}"))
    ok = not mismatches and elapsed < 300.0
    assert _report(capsys, 3, ok,
                   f"{ORACLE_INSTANCES} instances x 3 variants "
                   f"({infeasible} infeasible), {len(mismatches)} mismatches, "
                   f"{elapsed:.1f}s"), mismatches[:5]


def test_desk_min_solves_to_zero_stays(capsys, desk_min_runs):
    bad = []
    worst = 0.0
    for seed, _, instance_feasible, result, elapsed in desk_min_runs:
        worst = max(worst, elapsed)
        if not instance_feasible:
            bad.append((seed, "instance not feasible"))
        elif result.status is not SolveStatus.PROVEN_OPTIMAL:
            bad.append((seed, result.status.value))
        elif result.objective != 0.0:
            bad.append((seed, f"objective {result.objective}"))
        elif elapsed >= 120.0:
            bad.append((seed, f"{elapsed:.1f}s"))
    ok = not bad
    assert _report(capsys, 4, ok,
                   f"{len(desk_min_runs)} desk instances all proven optimal "
                   f"at 0 stays, worst {worst:.2f}s (< 120s each)"), bad


def test_desk_dev_objective_matches_decoded_assignment(capsys, desk_dev_runs):
    worst_obj = 0.0
    worst_yz = 0.0
    for _, roster, _, result in desk_dev_runs:
        recomputed = cs.weighted_deviation(roster, result.assignment)
        worst_obj = max(worst_obj, abs(result.objective - recomputed))

        sums_a = cs.score_sums(roster, result.assignment, "aom")
        sums_m = cs.score_sums(roster, result.assignment, "mom")
        n_c = roster.num_companies
        y_base = len(roster.students) * n_c
        z_base = y_base + n_c * (n_c - 1)
        p = 0
        for c in range(n_c):
            for c2 in range(n_c):
                if c2 == c:
                    continue
                worst_yz = max(worst_yz,
                               abs(result.primal[y_base + p] - abs(sums_a[c] - sums_a[c2])),
                               abs(result.primal[z_base + p] - abs(sums_m[c] - sums_m[c2])))
                p += 1
    ok = worst_obj <= 1e-6 and worst_yz <= 1e-6
    assert _report(capsys, 5, ok,
                   f"{len(desk_dev_runs)} desk runs, objective vs recomputation "
                   f"off by {worst_obj:.2e}, y/z vs score-sum gaps off by "
                   f"{worst_yz:.2e} (tol 1e-6)")


def test_deal_meets_pigeonhole_bound_and_certifies_optimal(capsys, pairs_sweep_runs):
    bad = []
    for n_c, size, roster, deal, pipeline in pairs_sweep_runs:
        expected_pairs = n_c * max(0, size - (n_c - 1))
        if cs.count_pairs(roster, deal) != expected_pairs:
            bad.append((n_c, size, "deal pair count"))
            continue
        if pipeline.warm_start != deal:
            bad.append((n_c, size, "warm start is not the deal"))
        cert = pipeline.certificate
        result = pipeline.result
        if result.status is not SolveStatus.PROVEN_OPTIMAL:
            bad.append((n_c, size, result.status.value))
        elif not (cert.ok and cert.optimal_by_bound and cert.gap_percent == 0.0):
            bad.append((n_c, size, "certificate"))
    ok = not bad
    assert _report(capsys, 6, ok,
                   f"{len(pairs_sweep_runs)} balanced instances, deal hits the "
                   f"pigeonhole count and certifies optimal at gap 0%"), bad


def test_all_solver_outputs_pass_independent_audit(capsys, oracle_sweep, desk_min_runs,
                                                   desk_dev_runs, pairs_sweep_runs):
    audited = 0
    failures = []

    def audit(roster, variant, result, tag):
        nonlocal audited
        if result.assignment is None:
            return
        audited += 1
        feas = cs.check_feasible(roster, result.assignment,
                                 forbid_same_company=variant is not MIN)
        cert = cs.certify(result, roster, variant)
        if feas.violations:
            failures.append((tag, "feasibility"))
        elif not cert.objective_matches or abs(cert.recomputed_objective
                                               - result.objective) > 1e-6:
            failures.append((tag, "objective recomputation"))

    for seed, variant, roster, _, result, _ in oracle_sweep[0]:
        audit(roster, variant, result, f"oracle {seed}/{variant.value}")
    for seed, roster, _, result, _ in desk_min_runs:
        audit(roster, MIN, result, f"desk-min {seed}")
    for seed, roster, _, result in desk_dev_runs:
        audit(roster, DEV, result, f"desk-dev {seed}")
    for n_c, size, roster, _, pipeline in pairs_sweep_runs:
        audit(roster, PAIRS, pipeline.result, f"pairs {n_c}x{size}")

    ok = not failures
    assert _report(capsys, 7, ok,
                   f"{audited} solver outputs re-audited, "
                   f"{len(failures)} discrepancies"), failures[:5]


def test_root_relaxation_never_exceeds_integer_optimum(capsys, oracle_sweep):
    records, _ = oracle_sweep
    checked = 0
    violations = []
    for seed, variant, _, expected, _, root in records:
        if expected is None or root.status is not cs.LpStatus.OPTIMAL:
            continue
        checked += 1
        if root.objective > expected + 1e-6:
            violations.append((seed, variant.value, root.objective, expected))
    ok = checked > 0 and not violations
    assert _report(capsys, 8, ok,
                   f"root relaxation at or below the integer optimum on "
                   f"{checked - len(violations)}/{checked} feasible solves"), \
        violations[:5]


def test_model_dimensions_match_closed_forms(capsys):
    def var_counts(model):
        counts: dict[str, int] = {}
        for name in model.variables.names():
            prefix = name.split("[", 1)[0]
            counts[prefix] = counts.get(prefix, 0) + 1
        return counts

    def row_counts(model):
        counts: dict[str, int] = {}
        for row in model.rows:
            counts[row.family] = counts.get(row.family, 0) + 1
        return counts

    bad = []
    for label, roster in (("full-scale", cs.generate(cs.reference_spec(2023), seed=0)),
                          ("desk", cs.generate(cs.desk_spec(), seed=101))):
        n = len(roster.students)
        n_c = roster.num_companies
        n_conf = len(roster.conflict_pairs)
        sizes = roster.company_sizes()

        vc = var_counts(cs.compile_model(roster, MIN))
        rc = row_counts(cs.compile_model(roster, MIN))
        if vc.get("x", 0) != n * n_c:
            bad.append((label, "x", vc.get("x", 0), n * n_c))
        if rc.get("assign_once", 0) != n:
            bad.append((label, "assign rows", rc.get("assign_once", 0), n))
        if rc.get("conflict", 0) != n_conf * n_c:
            bad.append((label, "conflict rows", rc.get("conflict", 0), n_conf * n_c))

        vc_dev = var_counts(cs.compile_model(roster, DEV))
        if vc_dev.get("y", 0) + vc_dev.get("z", 0) != 2 * n_c * (n_c - 1):
            bad.append((label, "y/z", vc_dev.get("y", 0) + vc_dev.get("z", 0),
                        2 * n_c * (n_c - 1)))

        vc_pairs = var_counts(cs.compile_model(roster, PAIRS))
        expected_u = sum(s * (s - 1) // 2 for s in sizes)
        if vc_pairs.get("u", 0) != expected_u:
            bad.append((label, "u", vc_pairs.get("u", 0), expected_u))

        if label == "full-scale" and vc.get("x", 0) != 32910:
            bad.append((label, "x literal", vc.get("x", 0), 32910))
    ok = not bad
    assert _report(capsys, 9, ok,
                   "x/assign/conflict/y/z/u counts match the closed forms at "
                   "full class scale (32,910 x) and desk scale"), bad


def test_pipeline_is_byte_reproducible(capsys, tmp_path):
    def run_pipeline(workdir):
        workdir.mkdir()
        roster = workdir / "roster.csv"
        config = workdir / "roster.cfg"
        assignment = workdir / "pairs.csv"
        meta = workdir / "pairs.csv.meta.json"
        report = workdir / "report.csv"
        steps = (
            ["generate", "--preset", "desk", "--seed", "5",
             "--roster", str(roster), "--config", str(config)],
            ["solve", "--roster", str(roster), "--config", str(config),
             "--variant", "pairs", "--out", str(assignment)],
            ["certify", "--roster", str(roster), "--config", str(config),
             "--variant", "pairs", "--result", str(assignment)],
            ["report", "--roster", str(roster), "--config", str(config),
             "--assignment", str(assignment), "--format", "csv",
             "--out", str(report)],
        )
        for step in steps:
            proc = subprocess.run([sys.executable, "-m", "cohort_shuffle.cli", *step],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (step[0], proc.stdout, proc.stderr)
        return tuple(p.read_bytes()
                     for p in (roster, config, assignment, meta, report))

    first = run_pipeline(tmp_path / "one")
    second = run_pipeline(tmp_path / "two")
    files = ("roster", "config", "assignment", "meta", "report")
    differing = [name for name, a, b in zip(files, first, second) if a != b]
    ok = not differing
    assert _report(capsys, 10, ok,
                   "generate/solve/certify/report wrote byte-identical "
                   "roster, config, assignment, meta, and report files "
                   "across two single-worker runs"), differing