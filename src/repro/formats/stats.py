"""Packing statistics for BS-CSR streams.

These statistics feed the performance model: the number of packets fixes the
bytes streamed from HBM (and therefore the cycle count of the memory-bound
cores), while the achieved non-zeros-per-packet fixes the operational
intensity plotted on the roofline of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.formats.bscsr import BSCSRStream, _lane_starts
from repro.formats.layout import PacketLayout

__all__ = ["PackingStats", "packing_stats", "count_packets"]


@dataclass(frozen=True)
class PackingStats:
    """Summary of how densely a matrix packs into BS-CSR packets."""

    n_packets: int
    nnz: int
    placeholders: int
    padding_lanes: int
    lanes: int
    packet_bytes: int

    @property
    def total_lanes(self) -> int:
        """All lane slots across packets (occupied + padding)."""
        return self.n_packets * self.lanes

    @property
    def bytes_streamed(self) -> int:
        """HBM bytes needed to stream the matrix once."""
        return self.n_packets * self.packet_bytes

    @property
    def fill_fraction(self) -> float:
        """Fraction of lane slots carrying genuine non-zeros."""
        if self.total_lanes == 0:
            return 0.0
        return self.nnz / self.total_lanes

    @property
    def nnz_per_packet(self) -> float:
        """Achieved average non-zeros per packet (the effective ``B``)."""
        if self.n_packets == 0:
            return 0.0
        return self.nnz / self.n_packets

    @property
    def operational_intensity(self) -> float:
        """Non-zeros processed per HBM byte (roofline x-axis, Figure 6)."""
        if self.bytes_streamed == 0:
            return 0.0
        return self.nnz / self.bytes_streamed


def count_packets(
    row_lengths: np.ndarray,
    lanes: int,
    rows_per_packet: int | None = None,
) -> tuple[int, int, int]:
    """Count packets the encoder would emit, without materialising them.

    Reads the encoder's own lane starts
    (:func:`repro.formats.bscsr._lane_starts`), so it is the encoder's
    packing rule by construction — usable at paper scale (10^7 rows).

    Returns
    -------
    ``(n_packets, placeholders, padding_lanes)``.
    """
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    if (row_lengths < 0).any():
        raise ConfigurationError("row lengths must be >= 0")
    if lanes < 1:
        raise ConfigurationError(f"lanes must be >= 1, got {lanes}")
    r = lanes if rows_per_packet is None else int(rows_per_packet)
    if not 1 <= r <= lanes:
        raise ConfigurationError(f"rows_per_packet must be in [1, {lanes}], got {r}")
    if len(row_lengths) == 0:
        return 0, 0, 0
    eff = np.maximum(row_lengths, 1)  # empty rows hold one placeholder lane
    n_packets = -(-int(_lane_starts(eff, lanes, r)[-1] + eff[-1]) // lanes)
    return n_packets, int((row_lengths == 0).sum()), n_packets * lanes - int(eff.sum())


def packing_stats(stream: BSCSRStream) -> PackingStats:
    """Compute packing statistics for an encoded stream."""
    occupied = stream.lanes_used
    return PackingStats(
        n_packets=stream.n_packets,
        nnz=stream.nnz,
        placeholders=occupied - stream.nnz,
        padding_lanes=stream.n_packets * stream.layout.lanes - occupied,
        lanes=stream.layout.lanes,
        packet_bytes=stream.layout.packet_bytes,
    )


def stats_from_row_lengths(
    row_lengths: np.ndarray,
    layout: PacketLayout,
    rows_per_packet: int | None = None,
) -> PackingStats:
    """Packing statistics computed from row lengths alone (no encoding).

    This is the path the paper-scale performance model uses: it needs packet
    counts and operational intensity, not the actual packets.
    """
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    n_packets, placeholders, padding = count_packets(
        row_lengths, layout.lanes, rows_per_packet
    )
    return PackingStats(
        n_packets=n_packets,
        nnz=int(row_lengths.sum()),
        placeholders=placeholders,
        padding_lanes=padding,
        lanes=layout.lanes,
        packet_bytes=layout.packet_bytes,
    )
