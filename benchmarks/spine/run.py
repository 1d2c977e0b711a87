"""The spine benchmark: wall-clock end-to-end metrics on four workloads,
plus a traced run that decomposes them layer by layer.

    python3 benchmarks/spine/run.py                    # all four workloads
    python3 benchmarks/spine/run.py --workload live_small --seed 3
    python3 benchmarks/spine/run.py --trace            # + per-layer ladder
    python3 benchmarks/spine/run.py --smoke            # seconds, tiny corpora
    python3 benchmarks/spine/run.py --out results.json # append the run

Every input is generated from ``--seed``; every workload checks that its
outputs are correct and the process exits non-zero when a check fails.
With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  End-to-end
metrics always come from an untraced run.
"""

from __future__ import annotations

import argparse
import json
import sys

import measure
import spec

SMOKE_SECONDS = 3.0


def default_seconds() -> float:
    with open(measure.REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def run_workload(name: str, seed: int, seconds: float, smoke: bool,
                 tracer: measure.Tracer, one_setup: bool = False) -> dict:
    """One run of a workload; ``one_setup`` is the traced run's short form
    (a single set-up, and for the live workloads a single round)."""
    import library
    import live

    if name in spec.LIVE_WORKLOADS:
        return live.run(name, seed, seconds, smoke, tracer,
                        rounds=1 if one_setup else spec.ROUNDS)
    if not one_setup:
        run = library.run_offline if name == "offline_batch" else library.run_mutable
        return run(seed, seconds, smoke, tracer)
    # The short form also drops the sample-count floors of a full run.
    if name == "offline_batch":
        return library.run_offline(
            seed, seconds, smoke, tracer, n_setups=1, min_slices=1)
    return library.run_mutable(
        seed, seconds, smoke, tracer, n_setups=1, cycles=library.SHORT_CYCLES)


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The traced run of one workload: an untraced and a traced repeat of
    the workload (their qps difference is the tracing overhead), the span
    file, and the per-layer ladder."""
    import layers

    part = seconds / spec.ROUNDS  # a third of a run each, untraced then traced
    plain = run_workload(name, seed, part, smoke, measure.Tracer(False), True)
    tracer = measure.Tracer(True)
    traced = run_workload(name, seed, part, smoke, tracer, True)
    span_file = measure.OUT_DIR / f"trace-{name}.json"
    tracer.dump(span_file)

    have = {}
    if name == "mutable_zipf":
        have["mutable"] = traced
    if name in spec.LIVE_WORKLOADS:
        have["live"] = traced["layers"]
    values, extras = layers.run_ladder(seed, smoke, part, have)
    values["trace.overhead_fraction"] = (
        1.0 - traced["metrics"]["qps"] / plain["metrics"]["qps"]
    )
    values["trace.coverage"] = measure.coverage(tracer.spans, traced["windows"])
    missing = set(spec.PER_LAYER_NAMES) - set(values)
    if missing:
        raise RuntimeError(f"ladder produced no value for {sorted(missing)}")
    return {
        "metrics": {k: values[k] for k in spec.PER_LAYER_NAMES},
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "checks": plain["checks"] + traced["checks"],
        "samples": traced["samples"],
        "rounds": traced["rounds"],
        "auto_backend": traced["auto_backend"],
        "span_file": str(span_file.relative_to(measure.REPO_ROOT)),
        "n_spans": len(tracer.spans),
        **extras,
    }


def summarise(result: dict) -> dict:
    """The JSON-ready record of one workload run."""
    metrics = {
        key: {"value": float(value), "unit": spec.UNITS[key]}
        for key, value in result["metrics"].items()
    }
    checks = [
        {"name": check, "passed": bool(passed), "detail": detail}
        for check, passed, detail in result["checks"]
    ]
    record = {
        "correct": all(c["passed"] for c in checks) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
        "checks": checks,
    }
    for key in ("samples", "rounds", "auto_backend", "checksum", "errors",
                "span_file", "n_spans", "host_roof"):
        if key in result:
            record[key] = result[key]
    return record


def print_record(name: str, record: dict, traced: bool) -> None:
    kind = "per-layer (traced)" if traced else "end-to-end"
    print(f"== {name}: {kind} ==")
    for key, metric in record["metrics"].items():
        print(f"  {key:34s} {metric['value']:>14.6g} {metric['unit']}")
    samples = record.get("samples", {})
    print(f"  latency samples: {samples.get('latency', 0)}; "
          f"attempted {record['attempted']}, failed {record['failed']}; "
          f"auto -> {record.get('auto_backend')}")
    if "checksum" in record:
        print(f"  probe checksum: {record['checksum']}")
    for check in record["checks"]:
        verdict = "ok" if check["passed"] else "FAILED"
        print(f"  check {check['name']}: {verdict} {check['detail']}".rstrip())
    for error in record.get("errors", ()):
        print(f"  error: {error}")


def append_run(path: str, run: dict) -> None:
    """Add this run to a result file (a set of runs ``compare.py`` reads)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        payload = {"schema": 1, "runs": []}
    payload["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, short rounds; never compared")
    parser.add_argument("--out", default=None,
                        help="append this run to a result file")
    args = parser.parse_args(argv)
    measure.use_repo_sources()

    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else default_seconds()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    run = {
        "smoke": bool(args.smoke), "seed": args.seed, "seconds": seconds,
        "traced": bool(args.trace), "commit": measure.git_commit(),
        "fingerprint": measure.fingerprint(), "workloads": {},
    }
    record = None
    for name in names:
        if args.trace:
            result = run_traced(name, args.seed, seconds, args.smoke)
        else:
            result = run_workload(
                name, args.seed, seconds, args.smoke, measure.Tracer(False))
        record = summarise(result)
        run["workloads"][name] = record
        print_record(name, record, bool(args.trace))
    if args.out:
        append_run(args.out, run)
    correct = all(r["correct"] for r in run["workloads"].values())
    if args.workload:
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
