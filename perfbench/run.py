"""cohort-shuffle benchmark: one workload per process, every solve checked.

    python3 perfbench/run.py --workload desk-warm --seed 1 --seconds 28 --trace 0

A run sets up five times, each in a fresh process: import the package,
generate the workload's rosters from ``--seed`` and write them to disk.  It
then repeats passes over the workload's fixed list of solves while another
pass still fits in ``--seconds``, making at least two passes.  One solve
follows the path of ``cohort-shuffle solve`` then ``report``: read the
roster, ``solve_roster`` with one worker and a fixed node budget, write the
assignment and its sidecar, build and render the report table.  A node
budget, not a time limit, bounds each solve, so a faster layer shows up as
less time for the same work.  Load is one process running one solve at a
time (a closed loop with one client).

End-to-end metrics with bounds: ``setup_s`` (median set-up), ``total_ref``
and ``solve_ref``, and ``peak_rss_mb``.  ``total_ref`` is the time of a pass
(all of the workload's solves) divided by the median time of a fixed
pure-Python reference loop run before and after each solve of that pass,
median over passes; ``solve_ref`` is the same per solve.  A shared host can
change speed by up to 2x over tens of seconds (NOTES.md has measurements),
which moves raw seconds from run to run far more than any bound allows; a
time in units of the reference loop cancels most of that, because the loop
sees the same host speed as the solves around it.
Raw seconds (``total_s``; ``solve_s``, a pass's mean per solve; the median
and a high percentile of single solves per variant; ``ref_s``) are printed
and stored with every run.  Result quality (``objective_sum`` over one pass,
``proven_share``) and ``failed_share`` are printed and stored too; they
vary by seed or are 0, so ``compare.py`` compares them seed by seed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` wrappers from ``tracer.py`` record a span around each layer
call and the line carries the per-layer metrics instead, plus the traced
run's own ``trace.total_s`` so the tracing overhead shows.  Each run also
writes a result record (and, traced, its spans) under ``--results`` for
``compare.py``.

Every solve is checked: certified by ``bounds.certify`` from the assignment
file it wrote, ``pairs`` objectives at or above the pigeonhole bound, desk
``min`` solves proven at 0, status, objective, nodes and LP iterations
identical on every pass, and on ``desk-tree`` the built-in root LP bound
equal to HiGHS's within LP tolerance.  A solve that raises or fails a check
counts in ``failed``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-ups per run, each in a fresh process so the import is paid every time;
#: setup_s reports their median
SETUP_REPEATS = 5
#: seconds one set-up process may take
SETUP_TIMEOUT_S = 60
#: passes every run makes at least, so each solve's repeatability is checked
MIN_PASSES = 2
#: times the HiGHS yardstick LP is solved; its median is reported
HIGHS_REPEATS = 5
#: |built-in root LP objective - HiGHS objective| allowed, relative to 1 + |HiGHS|
ROOT_LP_TOL = 1e-6
#: size of the reference loop timed between solves (about 16 ms here)
REF_LOOP_ITERATIONS = 60_000


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str
    rosters: int
    variants: tuple[str, ...]
    node_limit: int
    yardstick: bool = False


WORKLOADS = {
    # Why each workload was chosen is in BENCHMARK.json.
    # Zero-node regime: warm start and local search do nearly all the work and
    # no LP runs, so an LP-engine change should leave it unchanged.
    "desk-warm": Workload(
        preset="desk", rosters=4, variants=("min", "pairs"), node_limit=0),
    # dev's LP bound is 0, so the tree always runs: the one workload where the
    # simplex engine and branch-and-bound do the work.  Two nodes give a root
    # LP and one child LP after a single bound change.
    "desk-tree": Workload(
        preset="desk", rosters=3, variants=("dev",), node_limit=2, yardstick=True),
    # North-star scale, where model build, standard form and memory matter.
    # Budget 0 because the root LP would need a dense inverse of terabytes.
    "reference-pairs": Workload(
        preset="reference", rosters=1, variants=("pairs",), node_limit=0),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; every roster is drawn from it")
    p.add_argument("--seconds", type=float, required=True,
                   help="start another pass only while it fits in this time "
                        "(at least two passes are made)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=ROOT / ".perfbench" / "results",
                   help="directory for the result record and spans")
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> None:
    """Import cohort_shuffle from this checkout's src/, never from elsewhere."""
    if not (SRC / "cohort_shuffle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'cohort_shuffle'}")
    sys.path.insert(0, str(SRC))
    import cohort_shuffle
    if Path(cohort_shuffle.__file__).resolve().parent != SRC / "cohort_shuffle":
        raise SystemExit(f"perfbench: imported {cohort_shuffle.__file__}, not {SRC}")


# --- environment record ------------------------------------------------------

def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Largest thread count among the OpenBLAS libraries loaded in this process."""
    counts = []
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts.append(int(fn()))
                break
    return max(counts) if counts else None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# --- set-up ------------------------------------------------------------------

def roster_seeds(workload: Workload, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(workload.rosters)]


def write_inputs(workload: Workload, seed: int, workdir: Path) -> list[tuple[Path, Path]]:
    """Generate the workload's rosters from the seed and write them to workdir."""
    from cohort_shuffle.fileio import write_roster
    from cohort_shuffle.generator import desk_spec, generate, reference_spec

    spec = desk_spec() if workload.preset == "desk" else reference_spec(2023)
    paths = input_paths(workload, workdir)
    for (csv_path, cfg_path), roster_seed in zip(paths, roster_seeds(workload, seed)):
        write_roster(generate(spec, roster_seed), csv_path, cfg_path)
    return paths


def input_paths(workload: Workload, workdir: Path) -> list[tuple[Path, Path]]:
    return [(workdir / f"roster{k}.csv", workdir / f"roster{k}.cfg")
            for k in range(workload.rosters)]


def timed_setup(args: argparse.Namespace, workdir: Path) -> float:
    """Seconds for one set-up in a fresh process: import, generate, write."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def setup_child(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    import_package()
    write_inputs(WORKLOADS[args.workload], args.seed, args.setup_into)
    print(time.perf_counter() - started)
    return 0


# --- one solve ---------------------------------------------------------------

def solve_once(csv_path: Path, cfg_path: Path, variant, node_limit: int, out: Path):
    """The API path of `cohort-shuffle solve --workers 1` followed by `report`."""
    from cohort_shuffle import fileio, pipeline, reporting
    from cohort_shuffle.branch_bound import SolveOptions

    roster = fileio.read_roster(csv_path, cfg_path)
    opts = SolveOptions(workers=1, node_limit=node_limit)
    solved = pipeline.solve_roster(roster, variant, opts)
    res = solved.result
    if res.assignment is not None:
        fileio.write_assignment(out, roster, res.assignment)
        fileio.write_meta(Path(f"{out}.meta.json"), {
            "variant": variant.value,
            "status": res.status.value,
            "objective": res.objective,
            "bound": res.bound,
            "nodes": res.stats.nodes,
            "lp_iterations": res.stats.lp_iterations,
            "certificate_ok": None if solved.certificate is None else solved.certificate.ok,
        })
        reporting.render(reporting.company_stats(roster, res.assignment))
    return roster, solved


def check_solve(roster, variant, solved, out: Path, preset: str) -> list[str]:
    """Every way this solve's output is wrong; empty when it is right."""
    from cohort_shuffle.bounds import certify, pairs_lower_bound
    from cohort_shuffle.branch_bound import SolveStatus
    from cohort_shuffle.fileio import read_assignment
    from cohort_shuffle.ipmodel import ModelVariant

    res = solved.result
    if res.assignment is None:
        return [f"no assignment (status {res.status.value})"]
    problems = []
    if solved.certificate is None or not solved.certificate.ok:
        problems.append("pipeline certificate not ok")
    written = read_assignment(out)
    if written != res.assignment:
        problems.append("assignment file differs from the solved assignment")
    cert = certify(dataclasses.replace(res, assignment=written), roster, variant)
    if not cert.ok:
        problems.append("certify failed: " + "; ".join(cert.notes))
    if variant is ModelVariant.MIN_PAIRS and res.objective < pairs_lower_bound(roster).total:
        problems.append(f"pairs objective {res.objective} below the pigeonhole bound")
    if (preset == "desk" and variant is ModelVariant.MIN_SAME_COMPANY
            and (res.objective != 0.0 or res.status is not SolveStatus.PROVEN_OPTIMAL)):
        problems.append(f"desk min ended {res.status.value} at {res.objective}, not proven 0")
    return problems


# --- HiGHS yardstick ---------------------------------------------------------

def root_lp_yardstick(csv_path: Path, cfg_path: Path, variant) -> dict:
    """Built-in and HiGHS root LP objectives on one model, with HiGHS's median time."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    from cohort_shuffle.compiler import compile_model
    from cohort_shuffle.fileio import read_roster
    from cohort_shuffle.simplex import LpStatus, standard_form

    eng = standard_form(compile_model(read_roster(csv_path, cfg_path), variant))
    raw = eng.solve()
    if raw.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"built-in root LP ended {raw.status.value}")
    # A x + s = b with slack bounds [0, inf) for <=, (-inf, 0] for >=, [0, 0] for =
    a = eng.a_csc.tocsr()
    eq = eng.slack_lo == eng.slack_hi
    le = ~eq & (eng.slack_lo == 0.0)
    ge = ~eq & ~le
    a_ub = sparse.vstack([a[le], -a[ge]]).tocsr()
    b_ub = np.concatenate([eng.b[le], -eng.b[ge]])
    bounds = np.column_stack([eng.default_lower, eng.default_upper])
    times = []
    for _ in range(HIGHS_REPEATS):
        started = time.perf_counter()
        sol = linprog(eng.c, A_ub=a_ub, b_ub=b_ub, A_eq=a[eq], b_eq=eng.b[eq],
                      bounds=bounds, method="highs")
        times.append(time.perf_counter() - started)
        if sol.status != 0:
            raise RuntimeError(f"HiGHS root LP: {sol.message}")
    return {"builtin": raw.objective, "highs": float(sol.fun),
            "highs_s": statistics.median(times)}


# --- host speed --------------------------------------------------------------

def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that runs none of the program's code.

    Its dict, list and integer work resembles the solver's inner loops, so its
    time follows the speed the shared host gives this process at the moment.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    row = list(range(256))
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        table[i & 1023] = i
        acc += table.get(i >> 3, 0) + row[i & 255]
    return time.perf_counter() - started


# --- the run -----------------------------------------------------------------

@dataclasses.dataclass
class Measured:
    solve_s: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    pass_s: list[float] = dataclasses.field(default_factory=list)
    ref_s: list[float] = dataclasses.field(default_factory=list)
    objective_sum: float = 0.0
    proven: int = 0
    attempted: int = 0
    failed: set[int] = dataclasses.field(default_factory=set)
    yardstick: dict | None = None


def measure(workload: Workload, inputs, workdir: Path, seconds: float, tracer) -> Measured:
    from cohort_shuffle.ipmodel import ModelVariant

    plan = [(k, paths, ModelVariant(v))
            for k, paths in enumerate(inputs) for v in workload.variants]
    m = Measured()
    fingerprints: dict[tuple[int, str], tuple] = {}
    pass_wall: list[float] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        pass_solve_s = 0.0
        probes = [reference_loop()]
        for k, (csv_path, cfg_path), variant in plan:
            solve_id = m.attempted
            m.attempted += 1
            out = workdir / f"assignment{k}-{variant.value}.csv"
            if tracer is not None:
                tracer.begin_solve(solve_id)
            t0 = time.perf_counter()
            try:
                roster, solved = solve_once(csv_path, cfg_path, variant, workload.node_limit, out)
            except Exception:  # a solve that raises is a failed operation, not a crash
                solved, problems = None, ["raised:\n" + traceback.format_exc()]
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_solve()
            probes.append(reference_loop())
            if solved is not None:
                problems = check_solve(roster, variant, solved, out, workload.preset)
                res = solved.result
                fp = (res.status.value, res.objective, res.stats.nodes, res.stats.lp_iterations)
                first = fingerprints.setdefault((k, variant.value), fp)
                if fp != first:
                    problems.append(f"not repeatable: {fp} after {first}")
                if len(m.pass_s) == 0 and res.objective is not None:
                    m.objective_sum += res.objective
                m.proven += res.proven_optimal
            m.solve_s.setdefault(variant.value, []).append(elapsed)
            pass_solve_s += elapsed
            if problems:
                m.failed.add(solve_id)
                print(f"FAILED solve {solve_id} (roster {k}, {variant.value}): "
                      + "; ".join(problems), file=sys.stderr)
        m.pass_s.append(pass_solve_s)
        m.ref_s.append(statistics.median(probes))
        pass_wall.append(time.perf_counter() - pass_started)
        so_far = time.perf_counter() - started
        if len(m.pass_s) >= MIN_PASSES and so_far + statistics.median(pass_wall) > seconds:
            return m


def yardstick_check(workload: Workload, inputs, m: Measured) -> None:
    from cohort_shuffle.ipmodel import ModelVariant

    try:
        y = root_lp_yardstick(*inputs[0], ModelVariant(workload.variants[0]))
    except Exception:  # counted against the root solve it checks
        print("FAILED yardstick:\n" + traceback.format_exc(), file=sys.stderr)
        m.failed.add(0)
        return
    y["delta"] = y["builtin"] - y["highs"]
    if abs(y["delta"]) > ROOT_LP_TOL * (1.0 + abs(y["highs"])):
        print(f"FAILED yardstick: built-in root LP {y['builtin']!r} vs HiGHS {y['highs']!r}",
              file=sys.stderr)
        m.failed.add(0)
    m.yardstick = y


def percentile_line(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"median of {n}"
    q = math.floor(100 * (n - 10) / n)
    if q > 50:
        line += f"; p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f}"
    return line


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_into is not None:
        return setup_child(args)
    workload = WORKLOADS[args.workload]
    import_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        setup_s = [timed_setup(args, workdir) for _ in range(SETUP_REPEATS)]
        inputs = input_paths(workload, workdir)
        if tracer is not None:
            tracer.install()
        try:
            m = measure(workload, inputs, workdir, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if workload.yardstick:
            yardstick_check(workload, inputs, m)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(m.pass_s)
    per_pass = m.attempted // passes
    # Each pass's time in units of the reference loop timed around its solves.
    total_ref = statistics.median(t / r for t, r in zip(m.pass_s, m.ref_s))
    summary = {
        "setup_s": statistics.median(setup_s),
        "solve_ref": total_ref / per_pass,
        "total_ref": total_ref,
        # A pass's mean solve time, median over passes.  The median of single
        # solves is printed per variant below, but as a run metric it flips
        # between the two speeds this kind of shared host alternates between.
        "solve_s": statistics.median(m.pass_s) / per_pass,
        "total_s": statistics.median(m.pass_s),
        "ref_s": statistics.median(m.ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "objective_sum": m.objective_sum,
        "proven_share": m.proven / m.attempted,
        "failed_share": len(m.failed) / m.attempted,
    }
    if tracer is not None:
        values = tracer.layer_metrics(passes)
        values["bounds.certified_objective_sum"] = summary["objective_sum"]
        values["trace.total_s"] = summary["total_s"]
        values["trace.total_ref"] = summary["total_ref"]
        values["trace.ref_s"] = summary["ref_s"]
        values["trace.solve_s"] = summary["solve_s"]
        values["yardstick.highs_root_lp_s"] = m.yardstick["highs_s"] if m.yardstick else 0.0
        values["yardstick.root_bound_delta"] = m.yardstick["delta"] if m.yardstick else 0.0
    else:
        values = summary
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in section}

    env = environment(args.seed)
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {why}")
    print(f"{passes} passes of {per_pass} solves in {args.seconds:g} s; "
          f"one process, one solve at a time")
    print("environment: " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        print("timings include the tracing overhead")
    print(f"  {'solve_s':32s} {summary['solve_s']:.4f} s (mean of a pass, median of {passes})")
    for variant, times in m.solve_s.items():
        print(f"  {'solve_s ' + variant:32s} {statistics.median(times):.4f} s "
              f"({percentile_line(times)})")
    for name in ("total_s", "ref_s", "solve_ref", "total_ref", "setup_s", "peak_rss_mb",
                 "objective_sum", "proven_share", "failed_share"):
        unit = {"total_s": "s", "ref_s": "s", "solve_ref": "ref", "total_ref": "ref",
                "setup_s": "s", "peak_rss_mb": "MB",
                "objective_sum": "objective"}.get(name, "share")
        print(f"  {name:32s} {summary[name]:.6g} {unit}")
    if m.yardstick:
        print(f"  {'yardstick (root LP)':32s} built-in {m.yardstick['builtin']!r}, "
              f"HiGHS {m.yardstick['highs']!r} in {m.yardstick['highs_s']:.4f} s")
    if tracer is not None:
        for d in section:
            print(f"  {d['name']:40s} {values[d['name']]:.6g} {d['unit']}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "passes": passes,
              "solve_samples": m.solve_s, "pass_samples": m.pass_s, "ref_samples": m.ref_s,
              "summary": summary,
              "correct": not m.failed, "attempted": m.attempted, "failed": len(m.failed),
              "metrics": metrics}
    args.results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(args.results / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": not m.failed, "attempted": m.attempted,
                      "failed": len(m.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
