"""Whole-accelerator timing: c cores, one HBM channel each (Section III-A).

The accelerator's query latency is the *makespan* — the slowest core's
stream time (partitions are balanced so cores finish nearly together) — plus
the host-side invocation overhead and the final k*c-candidate merge, which
is negligible next to streaming hundreds of millions of non-zeros.

Every entry point ends in :meth:`TopKSpmvAccelerator.timing_from_packets`
(exact per-partition packet counts):

* :meth:`TopKSpmvAccelerator.timing_from_matrix` — an encoded matrix;
* :meth:`TopKSpmvAccelerator.timing_from_row_lengths` — paper-scale sizing
  without materialising the matrix, through ``count_packets`` (the
  encoder's own lane starts), so it equals the encoded matrix's timing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.formats.stats import count_packets
from repro.hw.calibration import CALIBRATION, CalibrationConstants
from repro.hw.design import AcceleratorDesign
from repro.hw.fpga_core import FPGACoreModel
from repro.hw.hbm import ALVEO_U280_HBM, HBMConfig

__all__ = ["AcceleratorTiming", "TopKSpmvAccelerator"]


@dataclass(frozen=True)
class AcceleratorTiming:
    """End-to-end timing of one Top-K SpMV query."""

    design_name: str
    core_seconds: tuple[float, ...]
    host_overhead_s: float
    nnz: int
    bytes_streamed: int

    @property
    def makespan_s(self) -> float:
        """Slowest core's stream time."""
        return max(self.core_seconds) if self.core_seconds else 0.0

    @property
    def total_seconds(self) -> float:
        """Query latency: makespan + host overhead."""
        return self.makespan_s + self.host_overhead_s

    @property
    def throughput_nnz_per_s(self) -> float:
        """Achieved non-zeros per second (the paper's headline metric)."""
        if self.total_seconds == 0.0:
            return 0.0
        return self.nnz / self.total_seconds

    @property
    def effective_bandwidth_gbps(self) -> float:
        """Aggregate bytes/s pulled from HBM during the query."""
        if self.total_seconds == 0.0:
            return 0.0
        return self.bytes_streamed / self.total_seconds / 1e9


class TopKSpmvAccelerator:
    """Timing model of the full multi-core design on an HBM board."""

    def __init__(
        self,
        design: AcceleratorDesign,
        hbm: HBMConfig = ALVEO_U280_HBM,
        constants: CalibrationConstants = CALIBRATION,
    ):
        if design.cores > hbm.n_channels:
            raise CapacityError(
                f"design wants {design.cores} cores but the board exposes "
                f"{hbm.n_channels} HBM channels"
            )
        self.design = design
        self.hbm = hbm
        self.constants = constants
        self.core_model = FPGACoreModel(design, hbm, constants)

    def timing_from_packets(
        self, packets_per_core: "list[int] | np.ndarray", nnz: int
    ) -> AcceleratorTiming:
        """Timing given exact per-core packet counts."""
        packets = [int(p) for p in packets_per_core]
        if len(packets) > self.design.cores:
            raise ConfigurationError(
                f"{len(packets)} partitions exceed the design's {self.design.cores} cores"
            )
        if any(p < 0 for p in packets):
            raise ConfigurationError("packet counts must be >= 0")
        core_seconds = tuple(
            self.core_model.time_for_packets(p).seconds for p in packets
        )
        packet_bytes = self.design.layout.packet_bytes
        return AcceleratorTiming(
            design_name=self.design.name,
            core_seconds=core_seconds,
            host_overhead_s=self.constants.host_overhead_s,
            nnz=int(nnz),
            bytes_streamed=sum(packets) * packet_bytes,
        )

    def timing_from_row_lengths(self, row_lengths: np.ndarray) -> AcceleratorTiming:
        """Timing at arbitrary scale from row lengths alone.

        Splits rows into balanced contiguous partitions (as the partitioner
        does) and counts the packets each core would stream.
        """
        row_lengths = np.asarray(row_lengths, dtype=np.int64)
        from repro.core.partition import partition_rows

        lanes = self.design.layout.lanes
        r = self.design.effective_rows_per_packet
        packets = []
        for part in partition_rows(len(row_lengths), self.design.cores):
            n, _, _ = count_packets(row_lengths[part.start : part.stop], lanes, r)
            packets.append(n)
        return self.timing_from_packets(packets, nnz=int(row_lengths.sum()))

    def timing_from_matrix(self, bscsr_matrix) -> AcceleratorTiming:
        """Timing from an encoded :class:`repro.formats.bscsr.BSCSRMatrix`."""
        packets = [s.n_packets for s in bscsr_matrix.streams]
        return self.timing_from_packets(packets, nnz=bscsr_matrix.nnz)

    def ideal_throughput_nnz_per_s(self) -> float:
        """Upper-bound throughput with perfectly dense packets (roofline point)."""
        return self.design.cores * self.core_model.throughput_nnz_per_s()
