"""Command-line interface.

Subcommands cover the full workflow: ``generate`` a synthetic roster,
``validate`` it, ``solve`` one of the three models, ``certify`` a saved
result, ``export-lp`` the model, ``report`` per-company statistics, and
``bound`` the pairs objective.  Exit codes: 0 success, 1 usage or input
error, 2 infeasible, 3 stopped without an optimality proof, 4 internal
or certification failure.

Timing is printed to stderr only, so the files and stdout produced by a
run are byte-for-byte reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from cohort_shuffle import __version__
from cohort_shuffle.bounds import certify, pairs_floors
from cohort_shuffle.branch_bound import SolveOptions, SolveResult, SolveStats, SolveStatus
from cohort_shuffle.compiler import compile_model
from cohort_shuffle.fileio import (
    config_lines,
    read_assignment,
    read_meta,
    read_roster,
    write_assignment,
    write_meta,
    write_roster,
)
from cohort_shuffle.generator import (
    GenerationError,
    balanced_spec,
    desk_spec,
    generate,
    reference_spec,
)
from cohort_shuffle.ipmodel import ModelVariant, export_lp
from cohort_shuffle.pipeline import require_valid, solve_roster
from cohort_shuffle.reporting import company_stats, render
from cohort_shuffle.roster import Assignment, Roster, assignment_objective, validate_roster

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NO_PROOF = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {
    SolveStatus.PROVEN_OPTIMAL: EXIT_OK,
    SolveStatus.FEASIBLE_GAP: EXIT_NO_PROOF,
    SolveStatus.TIME_LIMIT_NO_SOLUTION: EXIT_NO_PROOF,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message: str):  # noqa: A002 - argparse API
        raise UsageError(f"{self.prog}: {message}")


def _fmt(v: float | None) -> str:
    if v is None:
        return "-"
    v = float(v)
    if not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _budget(cast):
    """An argparse type: the option's text read by ``cast`` (``int`` or
    ``float``), rejected as a usage error unless it is finite and at least
    0."""
    def parse(text: str):
        value = cast(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, not {text}")
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, not {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid int value: ..."
    return parse


#: The ``generate`` flags each preset reads, besides ``--seed``; any other is
#: a usage error.
_PRESET_READS = {"desk": (), "reference": ("class_year",),
                 "balanced": ("companies", "company_size")}


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--roster", required=True, help="student CSV file")
    p.add_argument("--config", required=True, help="companion config file")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="cohort-shuffle",
                  description="Reassign students to companies under balance rules.")
    top.add_argument("--version", action="version", version=f"cohort-shuffle {__version__}")
    sub = top.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="write a synthetic roster")
    p.add_argument("--preset", choices=tuple(_PRESET_READS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class-year", type=int, default=None,
                   help="reference only: the bundled class year's company sizes (default 2023)")
    p.add_argument("--companies", type=int, default=None, help="balanced only")
    p.add_argument("--company-size", type=int, default=None, help="balanced only")
    p.add_argument("--roster", required=True, help="output student CSV")
    p.add_argument("--config", required=True, help="output companion config")

    p = sub.add_parser("validate", help="check roster structure")
    _add_instance_args(p)

    p = sub.add_parser("solve", help="solve one model variant")
    _add_instance_args(p)
    p.add_argument("--variant", choices=[v.value for v in ModelVariant], required=True)
    p.add_argument("--out", help="assignment CSV (a .meta.json sidecar is written too)")
    p.add_argument("--time-limit", type=_budget(float), default=None, metavar="SECONDS",
                   help="limit on the whole solve, compile and warm start included")
    p.add_argument("--node-limit", type=_budget(int), default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("certify", help="audit a saved assignment")
    _add_instance_args(p)
    p.add_argument("--variant", choices=[v.value for v in ModelVariant], required=True)
    p.add_argument("--result", required=True, help="assignment CSV to audit")
    p.add_argument("--meta", help="result sidecar (default: <result>.meta.json if present)")

    p = sub.add_parser("export-lp", help="write the model in LP text form")
    _add_instance_args(p)
    p.add_argument("--variant", choices=[v.value for v in ModelVariant], required=True)
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("report", help="per-company statistics table")
    _add_instance_args(p)
    p.add_argument("--assignment", help="assignment CSV (default: previous companies)")
    p.add_argument("--format", choices=("text", "csv", "markdown"), default="text")
    p.add_argument("--focus-race", default="white")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("bound", help="pairs objective lower bound")
    _add_instance_args(p)

    return top


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_valid_roster(args) -> Roster:
    """The roster and config ``args`` name, refused with ``solve``'s message
    when structurally invalid."""
    roster = read_roster(args.roster, args.config)
    require_valid(roster)
    return roster


def _read_assignment(path: str, roster: Roster) -> Assignment:
    """The assignment CSV at ``path``, with a row for each roster student and no other."""
    asg = read_assignment(path)
    for s in roster.students:
        if s.id not in asg:
            raise ValueError(f"{path}: no row for roster student {s.id!r}")
    known = {s.id for s in roster.students}
    for sid in asg:
        if sid not in known:
            raise ValueError(f"{path}: student {sid!r} is not in the roster")
    return asg


def _cmd_generate(args) -> int:
    for name in ("class_year", "companies", "company_size"):
        if getattr(args, name) is not None and name not in _PRESET_READS[args.preset]:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"--preset {args.preset} does not read {flag}")
    if args.preset == "desk":
        spec = desk_spec()
    elif args.preset == "reference":
        spec = reference_spec(2023 if args.class_year is None else args.class_year)
    else:
        if args.companies is None or args.company_size is None:
            raise UsageError("--preset balanced needs --companies and --company-size")
        spec = balanced_spec(args.companies, args.company_size)
    roster = generate(spec, args.seed)
    write_roster(roster, args.roster, args.config)
    print(f"wrote {len(roster.students)} students / {roster.num_companies} companies "
          f"to {args.roster}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    roster = read_roster(args.roster, args.config)
    problems = validate_roster(roster)
    for v in problems:
        print(f"invalid: {v.message}")
    if problems:
        return EXIT_INFEASIBLE
    print(f"ok: {len(roster.students)} students, {roster.num_companies} companies, "
          f"{len(roster.battalions)} battalions")
    return EXIT_OK


def _cmd_solve(args) -> int:
    roster = read_roster(args.roster, args.config)
    variant = ModelVariant(args.variant)
    opts = SolveOptions(time_limit_s=args.time_limit, seed=args.seed, node_limit=args.node_limit)
    started = time.perf_counter()
    out = solve_roster(roster, variant, opts)
    elapsed = time.perf_counter() - started
    res, cert = out.result, out.certificate

    print(f"variant: {variant.value}")
    print(f"status: {res.status.value}")
    print(f"objective: {_fmt(res.objective)}")
    print(f"bound: {_fmt(res.bound)}")
    print(f"gap_percent: {_fmt(res.gap)}")
    print(f"nodes: {res.stats.nodes}")
    if cert is not None:
        print(f"certificate: {'ok' if cert.ok else 'FAILED'}")
        for note in cert.notes:
            print(f"note: {note}")
    print(f"solved in {elapsed:.3f}s ({res.stats.lp_iterations} LP iterations)",
          file=sys.stderr)

    if args.out and res.assignment is not None:
        write_assignment(args.out, roster, res.assignment)
        meta = {
            "format": "cohort-shuffle-result",
            "version": __version__,
            "variant": variant.value,
            "status": res.status.value,
            "objective": res.objective,
            "bound": res.bound,
            # strict JSON has no Infinity: a gap with no finite value is null
            "gap_percent": res.gap if res.gap is not None and math.isfinite(res.gap) else None,
            "nodes": res.stats.nodes,
            "lp_iterations": res.stats.lp_iterations,
            "seed": args.seed,
            "time_limit_s": args.time_limit,
            "certificate_ok": None if cert is None else cert.ok,
            "config": config_lines(roster),
        }
        write_meta(f"{args.out}.meta.json", meta)

    if cert is not None and not cert.ok:
        return EXIT_INTERNAL
    return _STATUS_EXIT[res.status]


def _read_sidecar(path: str) -> dict:
    """The result sidecar at ``path``.  ValueError names the file unless it
    is a JSON object whose keys certify reads hold a solve status
    (``status``), a number or null (``objective``), a number (``bound``) and
    integers (``nodes``, ``lp_iterations``); missing and other keys pass."""
    meta = read_meta(path)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: a sidecar is a JSON object, not {type(meta).__name__}")
    kinds = {"objective": (int, float, type(None)), "bound": (int, float),
             "nodes": int, "lp_iterations": int}
    for key, value in meta.items():
        if key in kinds and (isinstance(value, bool) or not isinstance(value, kinds[key])):
            raise ValueError(f"{path}: {key} cannot be {value!r}")
    if meta.get("status", SolveStatus.FEASIBLE_GAP.value) not in [s.value for s in SolveStatus]:
        raise ValueError(f"{path}: status {meta['status']!r} is not a solve status")
    return meta


def _cmd_certify(args) -> int:
    roster = _read_valid_roster(args)
    variant = ModelVariant(args.variant)
    asg = _read_assignment(args.result, roster)

    meta_path = args.meta or f"{args.result}.meta.json"
    meta = _read_sidecar(meta_path) if Path(meta_path).exists() else {}
    reported = meta.get("objective")
    if reported is None:
        reported = assignment_objective(roster, asg, variant)
    result = SolveResult(
        status=SolveStatus(meta.get("status", SolveStatus.FEASIBLE_GAP.value)),
        assignment=asg,
        objective=float(reported),
        bound=float(meta.get("bound", 0.0)),
        stats=SolveStats(nodes=int(meta.get("nodes", 0)),
                         lp_iterations=int(meta.get("lp_iterations", 0)),
                         wall_time_s=0.0),
        primal=None,
    )
    cert = certify(result, roster, variant)
    print(f"feasible: {cert.feasible}")
    print(f"objective_matches: {cert.objective_matches}")
    print(f"recomputed_objective: {_fmt(cert.recomputed_objective)}")
    print(f"bound: {_fmt(cert.bound)}")
    print(f"gap_percent: {_fmt(cert.gap_percent)}")
    print(f"optimal_by_bound: {cert.optimal_by_bound}")
    print(f"certificate: {'ok' if cert.ok else 'FAILED'}")
    for note in cert.notes:
        print(f"note: {note}")
    return EXIT_OK if cert.ok else EXIT_INTERNAL


def _cmd_export_lp(args) -> int:
    roster = _read_valid_roster(args)
    model = compile_model(roster, ModelVariant(args.variant), form="paper")
    _emit(export_lp(model), args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    roster = _read_valid_roster(args)
    asg = (_read_assignment(args.assignment, roster) if args.assignment
           else {s.id: s.old_company for s in roster.students})
    table = company_stats(roster, asg, focus_race=args.focus_race)
    _emit(render(table, format=args.format), args.out)
    return EXIT_OK


def _cmd_bound(args) -> int:
    roster = read_roster(args.roster, args.config)
    floors = pairs_floors(roster)
    for c, (size, bound) in enumerate(zip(roster.company_sizes(), floors)):
        print(f"{roster.company_label(c)}: size={size} bound={bound}")
    print(f"total: {sum(floors)}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "export-lp": _cmd_export_lp,
    "report": _cmd_report,
    "bound": _cmd_bound,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
