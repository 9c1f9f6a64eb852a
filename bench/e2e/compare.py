#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs: parent and change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files of repeated runs (run.sh --out DIR),
one sub-directory per run, e.g. parent/01/toxic-batch.json. Runs are paired
in sorted path order, so start them alternately (parent 01, change 01,
parent 02, ...) and give both sides the same seeds.

For every workload and end-to-end metric it prints each side's median and
quartiles and a verdict, using the bounds in BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more than
              the bound (a share of the parent's median)
  improved    the change wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  unchanged   otherwise

Runs made with --smoke are skipped. A run whose checks failed (correct is
false), or a change whose share of failed requests (failed / attempted) is
above the parent's, disqualifies the comparison: the offending workloads are
printed and no verdict is given.

Per-layer metrics (traced runs) are listed with their medians, without a
verdict. Exit status 1 when any row regressed or the comparison is
disqualified. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(root: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(root.rglob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(data, dict) or "workload" not in data or "end_to_end" not in data:
            continue
        if data.get("smoke"):
            continue
        data["path"] = str(path)
        runs.setdefault(data["workload"], []).append(data)
    return runs


def failed_share(runs: list[dict]) -> float:
    attempted = sum(int(r.get("attempted", 0)) for r in runs)
    return sum(int(r.get("failed", 0)) for r in runs) / attempted if attempted else 1.0


def disqualified(workload: str, p_runs: list[dict], c_runs: list[dict]) -> list[str]:
    """Why the runs of one workload cannot be compared; empty when they can."""
    reasons = [f"{workload}: checks failed in {r['path']}"
               for r in p_runs + c_runs if r.get("correct") is not True]
    if p_runs and c_runs and failed_share(c_runs) > failed_share(p_runs):
        reasons.append(f"{workload}: change fails {failed_share(c_runs):.3g} of its requests, "
                       f"parent {failed_share(p_runs):.3g}")
    return reasons


def values(runs: list[dict], section: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        entry = run.get(section, {}).get(metric)
        if entry is not None and entry.get("value") is not None:
            out.append(float(entry["value"]))
    return out


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def better(a: float, b: float, lower_is_better: bool) -> bool:
    """True when value b reads better than value a."""
    return b < a if lower_is_better else b > a


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float, int, int]:
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = ((cm - pm) if lower_is_better else (pm - cm)) / pm if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(p, c, lower_is_better))
    spread = (p3 - p1) / pm if pm else 0.0
    every_run_better = all(better(p, c, lower_is_better) for p in parent for c in change)
    if worse_by > bound:
        label = "regressed"
    elif (pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1)
          and better(pm, cm, lower_is_better)
          and (spread <= bound or every_run_better)):
        label = "improved"
    elif spread > bound and not every_run_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return label, worse_by, wins, len(pairs)


def fmt(v: float) -> str:
    return f"{v:.4g}"


def main() -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()

    bench = json.loads((here.parent.parent / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w["name"] for w in bench["workloads"]]
    reasons = [why for w in workloads
               for why in disqualified(w, parent.get(w, []), change.get(w, []))]
    if reasons:
        print("disqualified, no verdict:\n  " + "\n  ".join(reasons))
        return 1
    regressed = False

    print(f"{'workload':12} {'metric':16} {'unit':7} {'parent median [q1, q3]':30} "
          f"{'change median [q1, q3]':30} {'worse by':>9} {'bound':>6} {'wins':>6}  verdict")
    for w in workloads:
        p_runs, c_runs = parent.get(w, []), change.get(w, [])
        if not p_runs or not c_runs:
            print(f"{w:12} (no runs: parent {len(p_runs)}, change {len(c_runs)})")
            continue
        if min(len(p_runs), len(c_runs)) < 10:
            print(f"{w:12} warning: fewer than 10 runs per side "
                  f"(parent {len(p_runs)}, change {len(c_runs)})")
        for m in bench["end_to_end"]:
            p, c = values(p_runs, "end_to_end", m["name"]), values(c_runs, "end_to_end", m["name"])
            if not p or not c:
                continue
            label, worse_by, wins, n = verdict(p, c, m["bound"], m["better"] == "lower")
            regressed |= label == "regressed"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{w:12} {m['name']:16} {m['unit']:7} "
                  f"{fmt(pq[1]) + ' [' + fmt(pq[0]) + ', ' + fmt(pq[2]) + ']':30} "
                  f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[2]) + ']':30} "
                  f"{worse_by:+9.1%} {m['bound']:6.0%} {f'{wins}/{n}':>6}  {label}")

    layer_rows = []
    for w in workloads:
        for m in bench["per_layer"]:
            p = values(parent.get(w, []), "per_layer", m["name"])
            c = values(change.get(w, []), "per_layer", m["name"])
            if p and c and (statistics.median(p) or statistics.median(c)):
                pm, cm = statistics.median(p), statistics.median(c)
                delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
                layer_rows.append(f"{w:12} {m['name']:38} {m['unit']:6} "
                                  f"{fmt(pm):>12} {fmt(cm):>12} {delta:>8}")
    if layer_rows:
        print(f"\nper-layer medians (traced runs)\n{'workload':12} {'metric':38} "
              f"{'unit':6} {'parent':>12} {'change':>12} {'delta':>8}")
        print("\n".join(layer_rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
