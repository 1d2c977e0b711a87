"""End-to-end self-check: cross-validate every pair of redundant paths.

``python -m repro.verify`` runs a battery of internal consistency checks a
release artifact should pass on any machine — each check compares two
*independently implemented* paths that must agree:

1. BS-CSR encode → decode returns the source matrix (lossless codec);
2. logical packets ↔ bit-exact 512-bit wire serialisation round-trip;
3. the fast packet counter equals the real encoder's packet count;
4. the vectorised dataflow equals the per-packet reference, bit for bit,
   for fixed-point and float32 accumulation;
5. the functional hardware path's per-core candidates
   (``query_candidates``), merged, equal the algorithmic partitioned
   approximation under a lossless codec;
6. the Monte Carlo precision estimate matches the closed form;
7. the vectorised timing estimate matches the exact greedy packer timing;
8. the cycle-level pipeline simulation matches the analytic core model on
   paper-shaped workloads;
9. every paper design point fits the U280 resource budget.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.rng import derive_rng, sample_unit_queries

__all__ = ["CheckResult", "run_self_check", "main"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-check."""

    name: str
    passed: bool
    detail: str


def _check_roundtrip(rng) -> CheckResult:
    from repro.arithmetic.codecs import ExactCodec
    from repro.data.synthetic import synthetic_embeddings
    from repro.formats import decode_to_csr, encode_bscsr, solve_layout

    matrix = synthetic_embeddings(1500, 256, 10, distribution="gamma", seed=rng)
    layout = solve_layout(256, 64)
    stream = encode_bscsr(
        matrix, layout, ExactCodec(), rows_per_packet=max(1, layout.lanes // 2)
    )
    back = decode_to_csr(stream)
    ok = (
        np.array_equal(back.indptr, matrix.indptr)
        and np.array_equal(back.indices, matrix.indices)
        and np.array_equal(back.data, matrix.data)
    )
    return CheckResult("bscsr-roundtrip", ok, f"{stream.n_packets} packets")


def _check_wire(rng) -> CheckResult:
    from repro.arithmetic.codecs import codec_for_design
    from repro.data.synthetic import synthetic_embeddings
    from repro.formats import BSCSRStream, encode_bscsr, solve_layout

    matrix = synthetic_embeddings(800, 1024, 20, seed=rng)
    codec = codec_for_design(20, "fixed")
    layout = solve_layout(1024, 20)
    stream = encode_bscsr(matrix, layout, codec, rows_per_packet=7)
    again = BSCSRStream.from_bytes(
        stream.to_bytes(), layout, codec,
        n_rows=stream.n_rows, n_cols=stream.n_cols,
        nnz=stream.nnz, rows_per_packet=7,
    )
    ok = (
        np.array_equal(again.ptr, stream.ptr)
        and np.array_equal(again.idx, stream.idx)
        and np.array_equal(again.val_raw, stream.val_raw)
        and np.array_equal(again.new_row, stream.new_row)
    )
    return CheckResult("wire-serialisation", ok, f"{stream.n_bytes} bytes")


def _check_counter(rng) -> CheckResult:
    from repro.arithmetic.codecs import ExactCodec
    from repro.data.synthetic import synthetic_embeddings
    from repro.formats import count_packets, encode_bscsr, solve_layout

    matrix = synthetic_embeddings(2000, 256, 8, distribution="gamma", seed=rng)
    layout = solve_layout(256, 32, lanes=9)
    stream = encode_bscsr(matrix, layout, ExactCodec(), rows_per_packet=3)
    counted, _, _ = count_packets(matrix.row_lengths(), 9, 3)
    return CheckResult(
        "packet-counter", counted == stream.n_packets,
        f"encoder {stream.n_packets}, counter {counted}",
    )


def _check_dataflow_equivalence(rng) -> CheckResult:
    from repro.arithmetic.codecs import codec_for_design
    from repro.core.dataflow import DataflowCore
    from repro.data.synthetic import synthetic_embeddings
    from repro.formats import encode_bscsr, solve_layout

    matrix = synthetic_embeddings(1200, 512, 12, seed=rng)
    x = sample_unit_queries(rng, 1, 512)[0]
    ok = True
    for bits, arith, dtype in ((20, "fixed", np.float64), (32, "float", np.float32)):
        stream = encode_bscsr(
            matrix, solve_layout(512, bits), codec_for_design(bits, arith),
            rows_per_packet=7,
        )
        core = DataflowCore(8, x, dtype)
        ref, _ = core.run(stream)
        fast, _ = core.run_fast(stream)
        ok &= np.array_equal(ref.indices, fast.indices)
        ok &= np.array_equal(ref.values, fast.values)
    return CheckResult("dataflow-fast-vs-reference", ok, "fixed20 + float32")


def _check_engine_vs_algorithmic(rng) -> CheckResult:
    from repro.core.approx import approximate_topk_spmv, merge_topk_candidates
    from repro.core.engine import TopKSpmvEngine
    from repro.data.synthetic import synthetic_embeddings
    from repro.hw.design import AcceleratorDesign

    matrix = synthetic_embeddings(1500, 256, 10, seed=rng)
    x = sample_unit_queries(rng, 1, 256)[0]
    design = AcceleratorDesign(
        name="exact64 8C", value_bits=64, arithmetic="fixed",
        cores=8, local_k=8, max_columns=256,
    )
    engine = TopKSpmvEngine(matrix, design=design)
    got = merge_topk_candidates(engine.query_candidates(x)[0], 32)
    expected = approximate_topk_spmv(
        matrix, design.quantize_query(x), 32, n_partitions=8, local_k=8
    )
    ok = got.indices.tolist() == expected.indices.tolist()
    return CheckResult("engine-vs-algorithmic", ok, "lossless codec, c=8, k=8")


def _check_precision_theory(rng) -> CheckResult:
    from repro.core.precision_model import (
        estimate_precision_monte_carlo,
        expected_precision,
    )

    mc = estimate_precision_monte_carlo(10**6, 16, 8, 100, trials=2000, seed=rng)
    closed = expected_precision(10**6, 16, 8, 100)
    return CheckResult(
        "precision-mc-vs-closed", mc.within(closed),
        f"mc {mc.mean:.4f} ± {mc.std_error:.4f}, closed {closed:.4f}",
    )


def _check_timing_estimate(rng) -> CheckResult:
    from repro.data.synthetic import uniform_row_lengths
    from repro.hw.design import PAPER_DESIGNS
    from repro.hw.multicore import TopKSpmvAccelerator

    lengths = uniform_row_lengths(60_000, 20, rng)
    accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
    exact = accel.timing_from_row_lengths(lengths).total_seconds
    estimate = accel.timing_estimate_from_row_lengths(lengths).total_seconds
    ok = abs(exact - estimate) <= 1e-3 * exact
    return CheckResult(
        "timing-estimate-vs-exact", ok, f"exact {exact:.6f}s, estimate {estimate:.6f}s"
    )


def _check_cycle_sim(rng) -> CheckResult:
    from repro.hw.cycle_sim import PipelineSimulator
    from repro.hw.design import PAPER_DESIGNS
    from repro.hw.fpga_core import FPGACoreModel

    sim = PipelineSimulator(PAPER_DESIGNS["20b"])
    report = sim.simulate_uniform_rows(n_rows=3000, nnz_per_row=20)
    analytic = FPGACoreModel(PAPER_DESIGNS["20b"]).time_for_packets(report.packets)
    ok = abs(report.seconds - analytic.seconds) <= 0.05 * analytic.seconds
    return CheckResult(
        "cycle-sim-vs-analytic", ok,
        f"sim {report.seconds * 1e6:.1f} us, analytic {analytic.seconds * 1e6:.1f} us",
    )


def _check_designs_fit(rng) -> CheckResult:
    from repro.hw.design import PAPER_DESIGNS
    from repro.hw.resources import ResourceModel

    model = ResourceModel()
    worst = 0.0
    for design in PAPER_DESIGNS.values():
        worst = max(worst, max(model.utilization(design).values()))
    return CheckResult("designs-fit-u280", worst <= 1.0, f"peak utilisation {worst:.0%}")


_CHECKS: "list[Callable]" = [
    _check_roundtrip,
    _check_wire,
    _check_counter,
    _check_dataflow_equivalence,
    _check_engine_vs_algorithmic,
    _check_precision_theory,
    _check_timing_estimate,
    _check_cycle_sim,
    _check_designs_fit,
]


def run_self_check(seed: int = 0) -> list[CheckResult]:
    """Run all checks; each gets an independent RNG stream."""
    rng = derive_rng(seed)
    return [check(rng) for check in _CHECKS]


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: print a pass/fail line per check."""
    del argv
    results = run_self_check()
    width = max(len(r.name) for r in results)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += not result.passed
        print(f"{result.name.ljust(width)}  {status}  {result.detail}")
    print(f"\n{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
