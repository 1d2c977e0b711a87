"""Compare two spine result files: is B worse than A beyond the bounds?

    python3 benchmarks/spine/compare.py A.json B.json

Each file is a set of runs written by ``run.py --out``.  One row is printed
per (workload, end-to-end metric): both medians, the ratio B/A with its
base, the run-to-run spread, and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the spread between either side's own runs is wider than
                the bound, so the medians cannot tell — unless every run
                of B reads better (``ok``) or worse beyond the bound
                (``regressed``) than every run of A

Exits 1 on any ``regressed``, 2 when the files cannot be compared: smoke
results, traced results, or mismatched machine fingerprints.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


class NotComparable(Exception):
    """The two result files must not be compared."""


def load_bounds(path=BENCHMARK_JSON) -> dict:
    """``{metric: (better, bound)}`` for the end-to-end metrics."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def collect(payload: dict) -> "tuple[dict, dict]":
    """``({(workload, metric): [values]}, fingerprint)`` of one result file."""
    runs = payload.get("runs", [])
    if not runs:
        raise NotComparable("no runs in the file")
    if any(run.get("smoke") for run in runs):
        raise NotComparable("smoke results are never compared")
    if any(run.get("traced") for run in runs):
        raise NotComparable(
            "traced runs carry per-layer metrics; end-to-end metrics come "
            "from untraced runs")
    fingerprints = {json.dumps(run["fingerprint"], sort_keys=True) for run in runs}
    if len(fingerprints) != 1:
        raise NotComparable("runs from different machines in one file")
    values: dict = {}
    for run in runs:
        for workload, record in run["workloads"].items():
            for metric, entry in record["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values, json.loads(fingerprints.pop())


def spread(values) -> float:
    """Inter-quartile distance over the median; 0.0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def verdict(a, b, better: str, bound: float) -> "tuple[str, float]":
    """``(verdict, worsening)`` of runs ``b`` against runs ``a``.

    ``worsening`` is the share of A's median by which B's median is worse
    (negative when B is better).
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0

    def all_b_beyond(limit: float) -> bool:
        """Every run of B worse than every run of A by more than ``limit``."""
        if better == "lower":
            return min(b) > max(a) * (1 + limit)
        return max(b) < min(a) * (1 - limit)

    def all_b_better() -> bool:
        return max(b) < min(a) if better == "lower" else min(b) > max(a)

    if all_b_better():
        return "ok", worsening
    if max(spread(a), spread(b)) > bound:
        return ("regressed" if all_b_beyond(bound) else "unresolved"), worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare(payload_a: dict, payload_b: dict, bounds: dict) -> "list[dict]":
    values_a, finger_a = collect(payload_a)
    values_b, finger_b = collect(payload_b)
    if finger_a != finger_b:
        raise NotComparable(
            f"machine fingerprints differ: {finger_a} vs {finger_b}")
    rows = []
    for key in sorted(values_a):
        workload, metric = key
        if key not in values_b or metric not in bounds:
            continue
        better, bound = bounds[metric]
        a, b = values_a[key], values_b[key]
        status, worsening = verdict(a, b, better, bound)
        med_a = statistics.median(a)
        rows.append({
            "workload": workload, "metric": metric, "better": better,
            "a": med_a, "b": statistics.median(b), "n_a": len(a), "n_b": len(b),
            "ratio": statistics.median(b) / med_a if med_a else float("nan"),
            "spread": max(spread(a), spread(b)), "bound": bound,
            "worsening": worsening, "verdict": status,
        })
    return rows


def render(rows) -> str:
    lines = [
        f"{'workload':14s} {'metric':18s} {'A (base)':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:14s} {r['metric']:18s} {r['a']:12.5g} {r['b']:12.5g} "
            f"{r['ratio']:7.3f} {r['spread']:7.3f} {r['bound']:6.3f}  "
            f"{r['verdict']} (n={r['n_a']}/{r['n_b']}, {r['better']} is better)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    payloads = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    try:
        rows = compare(payloads[0], payloads[1], load_bounds())
    except NotComparable as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
