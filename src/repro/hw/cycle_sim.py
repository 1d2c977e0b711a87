"""Packet-level cycle simulation of one core's 4-stage dataflow pipeline.

The analytic model (:mod:`repro.hw.fpga_core`) assumes one packet per cycle.
This simulator checks that assumption by walking the actual packet stream
through the pipeline stages with their structural hazards:

* **memory stage** — a packet arrives every ``ceil(clock / channel_rate)``
  cycles on average (modelled as a fractional issue interval);
* **scatter/aggregate stages** — fully pipelined, II = 1 (fixed point) or
  the design's float II;
* **Top-K update stage** — the argmin scratchpad handles one finished row
  per cycle; a packet finishing ``m`` rows occupies the stage for
  ``max(1, m)`` cycles and back-pressures the pipeline when ``m > 1``.

On the paper's workloads (20-40 non-zeros per row, B <= 15) at most one row
ends per packet almost always, so the update cost is hidden — the paper's
"our data-flow design completely hides the Top-K update cost".  The
simulator quantifies where that stops being true (very short rows), an
ablation the analytic model cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.formats.bscsr import BSCSRStream, _lane_starts
from repro.hw.calibration import CALIBRATION, CalibrationConstants
from repro.hw.design import AcceleratorDesign
from repro.hw.hbm import ALVEO_U280_HBM, HBMConfig

__all__ = ["CycleReport", "PipelineSimulator"]


@dataclass(frozen=True)
class CycleReport:
    """Outcome of simulating one partition stream on one core."""

    packets: int
    cycles: float
    stall_cycles: float
    memory_wait_cycles: float
    seconds: float
    clock_mhz: float

    @property
    def packets_per_cycle(self) -> float:
        """Achieved packet rate in packets/cycle (1.0 = fully pipelined)."""
        if self.cycles == 0:
            return 0.0
        return self.packets / self.cycles

    @property
    def stall_fraction(self) -> float:
        """Fraction of cycles lost to update-stage back-pressure."""
        if self.cycles == 0:
            return 0.0
        return self.stall_cycles / self.cycles


class PipelineSimulator:
    """Cycle-walks a BS-CSR stream through the 4-stage core pipeline."""

    def __init__(
        self,
        design: AcceleratorDesign,
        hbm: HBMConfig = ALVEO_U280_HBM,
        constants: CalibrationConstants = CALIBRATION,
    ):
        self.design = design
        self.hbm = hbm
        self.constants = constants

    @property
    def clock_hz(self) -> float:
        """Core clock in Hz."""
        return self.design.resolved_clock_mhz * 1e6

    @property
    def memory_issue_interval(self) -> float:
        """Cycles between packet arrivals from the HBM channel (>= 1)."""
        packet_rate = self.hbm.channel_sustained_bps / self.design.layout.packet_bytes
        return max(1.0, self.clock_hz / packet_rate)

    @property
    def compute_issue_interval(self) -> float:
        """Cycles between packets the arithmetic pipeline can absorb."""
        if self.design.arithmetic == "float":
            return self.constants.float_initiation_interval
        return self.constants.fixed_point_initiation_interval

    def simulate_rows_per_packet(self, rows_per_packet: np.ndarray) -> CycleReport:
        """Simulate from the per-packet finished-row counts.

        The stream's values are irrelevant to timing; only how many rows
        finish in each packet matters (update-stage occupancy).
        """
        rows_per_packet = np.asarray(rows_per_packet, dtype=np.int64)
        if (rows_per_packet < 0).any():
            raise ConfigurationError("rows_per_packet entries must be >= 0")
        n_packets = len(rows_per_packet)
        if n_packets == 0:
            return CycleReport(
                packets=0, cycles=0.0, stall_cycles=0.0,
                memory_wait_cycles=0.0, seconds=0.0,
                clock_mhz=self.design.resolved_clock_mhz,
            )
        mem_ii = self.memory_issue_interval
        comp_ii = self.compute_issue_interval

        # Every packet must wait for (a) its arrival from the channel,
        # (b) the arithmetic pipeline's initiation interval, and (c) the
        # update stage finishing the previous packet's rows.
        arrival = (np.arange(n_packets, dtype=np.float64) + 1.0) * mem_ii
        update_busy = np.maximum(1.0, rows_per_packet.astype(np.float64))
        t = arrival[0]
        stall = 0.0
        mem_wait = 0.0
        for p in range(1, n_packets):
            compute_ready = t + comp_ii
            update_ready = t + update_busy[p - 1]
            start = max(arrival[p], compute_ready, update_ready)
            if update_ready > max(arrival[p], compute_ready):
                stall += update_ready - max(arrival[p], compute_ready)
            if arrival[p] > max(compute_ready, update_ready):
                mem_wait += arrival[p] - max(compute_ready, update_ready)
            t = start

        drain = self.constants.pipeline_fill_cycles + float(update_busy[-1])
        cycles = t + drain
        return CycleReport(
            packets=n_packets,
            cycles=cycles,
            stall_cycles=stall,
            memory_wait_cycles=mem_wait,
            seconds=cycles / self.clock_hz,
            clock_mhz=self.design.resolved_clock_mhz,
        )

    def simulate_stream(self, stream: BSCSRStream) -> CycleReport:
        """Simulate an encoded stream (uses its real row-ending profile)."""
        rows_per_packet = (stream.ptr > 0).sum(axis=1).astype(np.int64)
        return self.simulate_rows_per_packet(rows_per_packet)

    def simulate_uniform_rows(self, n_rows: int, nnz_per_row: int) -> CycleReport:
        """Closed workload: ``n_rows`` constant-length rows.

        Handy for the short-row ablation without materialising a matrix.
        """
        from repro.utils.validation import check_positive_int

        check_positive_int(n_rows, "n_rows")
        check_positive_int(nnz_per_row, "nnz_per_row")
        lengths = np.full(n_rows, nnz_per_row, dtype=np.int64)
        lanes = self.design.layout.lanes
        starts = _lane_starts(lengths, lanes, self.design.effective_rows_per_packet)
        # Each packet's row-ending count, from the encoder's own lane starts.
        return self.simulate_rows_per_packet(
            np.bincount((starts + nnz_per_row - 1) // lanes)
        )
