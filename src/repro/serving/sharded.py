"""Row-sharded multi-board serving of one embedding collection.

A :class:`ShardedEngine` is a :class:`~repro.core.engine.TopKSpmvEngine`
whose modelled board is a fleet of ``N`` simulated boards ("shards"): every
query is a scatter-gather in which all shards stream their rows concurrently
and the host keeps the global Top-K.  Collection handling, validation, the
mutation facade and the one query driver are the engine's, so the fleet's
bits are the unsharded engine's; only the modelled timing and power differ.
The scatter-gather latency is the slowest shard's makespan plus one host
invocation.

One board model serves both sharding modes: the :mod:`repro.hw.multicore`
per-core packet model, in which each core streams its HBM channel's share
of the BS-CSR stream (the paper's Figure 6), dealt over boards.

* **aligned** (default, ``cores_per_shard=None``) — the served collection's
  partition streams are dealt contiguously to shards: shard ``i`` streams
  partitions ``[start, stop)`` of every segment (a frozen artifact is one
  segment; the delta snapshot rides with partition 0).  A board is billed
  for the streams it holds.
* **full-board** (``cores_per_shard=c``) — shard ``i`` owns a contiguous
  row slice and is timed as its own ``c``-core board re-partitioning that
  slice, from the slice's row lengths alone.  Nothing is re-encoded: the
  answers come from the parent artifact.

Shards are recomputed whenever the served collection's generation moves.
The single engine bills its design's full core count instead, so the two
differ in energy when a collection has fewer partitions than cores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.engine import TopKSpmvEngine, _partition_load
from repro.core.partition import partition_rows
from repro.core.reference import TopKResult
from repro.core.segments import SegmentedCollection
from repro.errors import ConfigurationError
from repro.hw.calibration import CALIBRATION, CalibrationConstants
from repro.hw.design import AcceleratorDesign
from repro.hw.hbm import ALVEO_U280_HBM, HBMConfig
from repro.hw.multicore import AcceleratorTiming, TopKSpmvAccelerator
from repro.hw.power import estimate_fpga_power_w
from repro.hw.uram import ALVEO_U280_URAM, URAMSpec
from repro.utils.validation import check_positive_int

__all__ = ["BoardShard", "ShardedResult", "ShardedEngine"]


@dataclass(frozen=True)
class BoardShard:
    """One simulated board of a fleet: the streams it holds, its load,
    timing and power for the current collection generation."""

    shard_id: int
    stream_range: "tuple[int, int]"
    n_streams: int
    nnz: int
    timing: AcceleratorTiming
    power_w: float


@dataclass(frozen=True)
class ShardedResult:
    """One scatter-gather query across every shard."""

    topk: TopKResult
    shard_timings: "tuple[AcceleratorTiming, ...]"
    host_overhead_s: float
    power_w: float

    @property
    def latency_s(self) -> float:
        """Slowest shard's makespan plus one host invocation."""
        makespans = [t.makespan_s for t in self.shard_timings]
        return (max(makespans) if makespans else 0.0) + self.host_overhead_s

    @property
    def energy_j(self) -> float:
        """Fleet energy for the query (all boards powered for the gather)."""
        return self.power_w * self.latency_s


class ShardedEngine(TopKSpmvEngine):
    """A fleet of simulated boards row-sharding one embedding collection."""

    def __init__(
        self,
        matrix,
        n_shards: int,
        design: AcceleratorDesign | None = None,
        cores_per_shard: int | None = None,
        hbm: HBMConfig = ALVEO_U280_HBM,
        uram: URAMSpec = ALVEO_U280_URAM,
        constants: CalibrationConstants = CALIBRATION,
    ):
        """Shard a collection across ``n_shards`` boards.

        Parameters
        ----------
        matrix:
            Anything :class:`~repro.core.engine.TopKSpmvEngine` serves: a
            compiled artifact (adopted verbatim), a segmented collection
            (aligned mode only) or a raw matrix, which is compiled once.
        n_shards:
            Number of boards.  In aligned mode it must not exceed the
            collection's partition streams (each shard needs at least one).
        design:
            Accelerator design point, as for the single engine.
        cores_per_shard:
            ``None`` selects aligned mode (see module docstring); an integer
            gives every shard its own full board with that many cores.
        """
        self.n_shards = check_positive_int(n_shards, "n_shards")
        self.cores_per_shard = (
            None
            if cores_per_shard is None
            else check_positive_int(cores_per_shard, "cores_per_shard")
        )
        if self.cores_per_shard is not None and isinstance(
            matrix, SegmentedCollection
        ):
            raise ConfigurationError(
                "cores_per_shard times each board over a contiguous row "
                "slice of one frozen layout, which a segmented collection's "
                "segments, tombstones and delta do not have; use aligned "
                "mode (cores_per_shard=None)"
            )
        super().__init__(matrix, design, hbm=hbm, uram=uram, constants=constants)
        # Every board starts with a stream to scan; a later compaction into
        # fewer partitions may leave a board idle (it stays powered).
        n_streams = sum(s.n_streams for s in self.shards)
        if self.cores_per_shard is None and self.n_shards > n_streams:
            raise ConfigurationError(
                f"aligned mode cannot spread {n_streams} partition streams "
                f"over {self.n_shards} shards; lower n_shards"
            )

    def _board_cores(self, design: AcceleratorDesign) -> int:
        return design.cores if self.cores_per_shard is None else self.cores_per_shard

    def _frozen_only(self, action: str) -> None:
        if self.cores_per_shard is not None:
            raise ConfigurationError(
                f"{action} exposes the artifact's per-core sweep, but a "
                "full-board fleet's cores are not the artifact's partitions"
            )
        super()._frozen_only(action)

    @property
    def shards(self) -> "list[BoardShard]":
        """Per-board load, timing and power of the current generation."""
        return self._per_generation("shards", self._deal_shards)

    def _deal_shards(self) -> "list[BoardShard]":
        """Time every board of the current generation (see module docstring)."""
        if self.cores_per_shard is None:
            packets, nnz = _partition_load(self._query_view)
            boards = [
                (
                    (deal.start, deal.stop),
                    replace(self.design, cores=max(1, deal.stop - deal.start)),
                    self.accelerator.timing_from_packets(
                        packets[deal.start : deal.stop],
                        nnz=sum(nnz[deal.start : deal.stop]),
                    ),
                )
                for deal in partition_rows(len(packets), self.n_shards)
            ]
        else:
            board = self.design.with_cores(self.cores_per_shard)
            accelerator = TopKSpmvAccelerator(
                board, self.accelerator.hbm, self.constants
            )
            row_lengths = np.diff(self.matrix.indptr)
            boards = [
                (
                    (0, board.cores),
                    board,
                    accelerator.timing_from_row_lengths(
                        row_lengths[part.start : part.stop]
                    ),
                )
                for part in partition_rows(len(row_lengths), self.n_shards)
            ]
        return [
            BoardShard(
                shard_id=shard_id,
                stream_range=streams,
                n_streams=streams[1] - streams[0],
                nnz=timing.nnz,
                timing=timing,
                power_w=estimate_fpga_power_w(board, self.constants),
            )
            for shard_id, (streams, board, timing) in enumerate(boards)
        ]

    def query(self, x: np.ndarray, top_k: int) -> ShardedResult:
        """One scatter-gather Top-K query across every shard.

        A one-row :meth:`query_batch`: the global Top-K, identical to the
        unsharded engine in either mode, so sharding is a pure capacity
        knob.
        """
        batch = self.query_batch(self._check_query(x)[None, :], top_k)
        return ShardedResult(
            topk=batch.topk[0],
            shard_timings=tuple(s.timing for s in self.shards),
            host_overhead_s=self.constants.host_overhead_s,
            power_w=self.power_w,
        )

    @property
    def makespan_s(self) -> float:
        """Slowest shard's stream time for one query."""
        return max(s.timing.makespan_s for s in self.shards)

    @property
    def power_w(self) -> float:
        """Fleet power: every shard board plus nothing shared."""
        return sum(s.power_w for s in self.shards)

    def describe(self) -> str:
        """Multi-line summary of the sharded deployment."""
        mode = (
            "aligned streams"
            if self.cores_per_shard is None
            else f"{self.cores_per_shard} cores/shard"
        )
        lines = [
            f"{self.n_shards} shards ({mode}) of {self.design.describe()}",
            f"matrix: {self.matrix.n_rows} rows x {self.matrix.n_cols} cols, "
            f"{self.matrix.nnz} non-zeros",
        ]
        for shard in self.shards:
            lines.append(
                f"  shard {shard.shard_id}: {shard.n_streams} streams, "
                f"{shard.nnz} nnz, makespan {shard.timing.makespan_s * 1e3:.3f} ms"
            )
        lines.append(
            f"scatter-gather latency: {self.latency_s * 1e3:.3f} ms, "
            f"fleet power: {self.power_w:.1f} W"
        )
        return "\n".join(lines)
