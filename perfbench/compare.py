"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*-trace0.json`` records written by
``run.py --results DIR``, typically ten seeds per workload.  For every
workload and every end-to-end metric in BENCHMARK.json the row gives both
sides' median and quartiles, the change's median as a ratio of the base's,
and a verdict that uses the metric's own bound:

* better: the change wins at least nine tenths of the paired runs (ties
  count for neither) and the medians differ by more than the base's
  quartile spread;
* worse: the change's median is worse than the base's by more than the bound;
* unresolved: the base's quartile spread is wider than the bound, and not
  every change run reads better than every base run;
* unchanged: none of the above.

Runs are paired by seed where both sides ran it, otherwise in seed order.
Raw wall seconds (``total_s``) and the reference loop's time (``ref_s``)
follow in rows without a verdict: on a shared host they swing with its
speed, which is why the bounded time metrics are in reference-loop units.

The result quality is compared seed by seed, because it repeats exactly for
a seed and varies widely between seeds: for ``objective_sum`` (lower is
better) and ``proven_share`` (higher is better) the row counts the common
seeds on which the change is better, equal and worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> untraced result record."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # gain = sign * (base - change)
    b1, bmed, b3 = quartiles(list(base.values()))
    _, cmed, _ = quartiles(list(change.values()))
    common = sorted(set(base) & set(change))
    if common:
        pairs = [(base[s], change[s]) for s in common]
    else:
        pairs = list(zip([base[s] for s in sorted(base)], [change[s] for s in sorted(change)]))
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(cmed - bmed) > b3 - b1 and sign * (bmed - cmed) > 0:
        return "better"
    if sign * (cmed - bmed) > bound * abs(bmed):
        return "worse"
    every_better = all(sign * (b - c) > 0 for b in base.values() for c in change.values())
    if (b3 - b1) > bound * abs(bmed) and not every_better:
        return "unresolved"
    return "unchanged"


def quality_row(base: dict[int, dict], change: dict[int, dict], name: str, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    deltas = [sign * (change[s]["summary"][name] - base[s]["summary"][name])
              for s in sorted(set(base) & set(change))]
    worse = sum(d > 0 for d in deltas)
    outcome = "worse" if worse else ("better" if any(deltas) else "unchanged")
    return (f"{name} ({better} is better) on {len(deltas)} common seeds: "
            f"{sum(d < 0 for d in deltas)} better, {deltas.count(0)} equal, {worse} worse: "
            f"{outcome}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, change_dir = (Path(a) for a in argv)
    base, change = load(base_dir), load(change_dir)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"base: {base_dir}   change: {change_dir}")
    header = (f"{'workload':16s} {'metric':14s} {'base median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'change/base':22s} verdict")
    print(header)
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:16s} only in {'base' if workload in base else 'change'}")
            continue
        for side, runs in (("base", base[workload]), ("change", change[workload])):
            failed = sum(r["failed"] for r in runs.values())
            attempted = sum(r["attempted"] for r in runs.values())
            print(f"{workload:16s} {side}: {len(runs)} runs, seeds {sorted(runs)}, "
                  f"{failed}/{attempted} solves failed")
        for m in metrics:
            name = m["name"]
            b = {s: r["metrics"][name]["value"] for s, r in base[workload].items()}
            c = {s: r["metrics"][name]["value"] for s, r in change[workload].items()}
            b1, bmed, b3 = quartiles(list(b.values()))
            c1, cmed, c3 = quartiles(list(c.values()))
            unit = m["unit"]
            base_cell = f"{bmed:.4g} [{b1:.4g}, {b3:.4g}] {unit}"
            change_cell = f"{cmed:.4g} [{c1:.4g}, {c3:.4g}] {unit}"
            ratio = f"{cmed / bmed:.4f}x of {bmed:.4g}" if bmed else "base is 0"
            print(f"{workload:16s} {name:14s} {base_cell:34s} {change_cell:34s} "
                  f"{ratio:22s} {verdict(b, c, m['better'], m['bound'])} "
                  f"(bound {m['bound']:g})")
        for name, unit in (("total_s", "s"), ("ref_s", "s")):
            b1, bmed, b3 = quartiles([r["summary"][name] for r in base[workload].values()])
            c1, cmed, c3 = quartiles([r["summary"][name] for r in change[workload].values()])
            print(f"{workload:16s} {name:14s} {f'{bmed:.4g} [{b1:.4g}, {b3:.4g}] {unit}':34s} "
                  f"{f'{cmed:.4g} [{c1:.4g}, {c3:.4g}] {unit}':34s} "
                  f"{f'{cmed / bmed:.4f}x of {bmed:.4g}':22s} raw wall time, no verdict")
        for name, better in (("objective_sum", "lower"), ("proven_share", "higher")):
            print(f"{workload:16s} " + quality_row(base[workload], change[workload], name, better))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
