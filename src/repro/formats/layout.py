"""BS-CSR packet layout arithmetic (paper Section III-B and IV-C).

A 512-bit packet holds ``B`` lanes, each carrying a ``ptr`` (cumulative
in-packet non-zero count recorded at row endings), an ``idx`` (column index)
and a ``val`` (reduced-precision value), plus one global ``new_row`` bit.
The capacity equation from Section IV-C is::

    B * (ptr_bits + idx_bits + val_bits) + 1 <= packet_bits

with ``idx_bits = ceil(log2(M))`` and ``ptr_bits = ceil(log2(B + 1))``
(cumulative counts span 1..B, 0 is the padding sentinel; this equals the
paper's "4 bits for B = 15").  Solving for the largest feasible ``B`` gives
the paper's range B = 7..15 across the configurations it evaluates.

This module also reproduces the Figure 3 comparison: a naïve COO packet
holds 5 non-zeros, a reduced-precision COO packet holds 8, BS-CSR holds 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, LayoutError
from repro.utils.validation import check_positive_int

__all__ = [
    "PacketLayout",
    "ptr_field_bits",
    "index_field_bits",
    "solve_layout",
    "max_lanes",
    "naive_coo_capacity",
    "optimized_coo_capacity",
]

#: HBM memory controllers on the Alveo U280 favour 256-512 bit transactions
#: (Shuhai, FCCM'20); the paper builds BS-CSR around 512-bit packets.
DEFAULT_PACKET_BITS = 512


def ptr_field_bits(lanes: int) -> int:
    """Width of one ``ptr`` field for a packet with ``lanes`` lanes.

    Cumulative counts take values 1..lanes and 0 marks an unused slot, so
    ``ceil(log2(lanes + 1))`` bits are required (4 bits for B = 15, matching
    Figure 3).
    """
    lanes = check_positive_int(lanes, "lanes")
    return max(1, math.ceil(math.log2(lanes + 1)))


def index_field_bits(n_cols: int) -> int:
    """Width of one ``idx`` field: ``ceil(log2(M))`` bits for M columns."""
    n_cols = check_positive_int(n_cols, "n_cols")
    if n_cols == 1:
        return 1
    return math.ceil(math.log2(n_cols))


@dataclass(frozen=True)
class PacketLayout:
    """A concrete BS-CSR packet layout.

    Attributes
    ----------
    lanes:
        Number of non-zero slots per packet (the paper's ``B``).
    ptr_bits, idx_bits, val_bits:
        Field widths of the three per-lane fields.
    packet_bits:
        Total packet width (512 for the U280 HBM controllers).
    """

    lanes: int
    ptr_bits: int
    idx_bits: int
    val_bits: int
    packet_bits: int = DEFAULT_PACKET_BITS

    def __post_init__(self) -> None:
        for name in ("lanes", "ptr_bits", "idx_bits", "val_bits", "packet_bits"):
            check_positive_int(getattr(self, name), name)
        if self.used_bits > self.packet_bits:
            raise LayoutError(
                f"layout infeasible: {self.lanes} lanes x "
                f"({self.ptr_bits}+{self.idx_bits}+{self.val_bits}) bits + 1 = "
                f"{self.used_bits} > {self.packet_bits} packet bits"
            )
        if self.ptr_bits < ptr_field_bits(self.lanes):
            raise LayoutError(
                f"ptr field too narrow: {self.ptr_bits} bits cannot count up to "
                f"{self.lanes} lanes"
            )

    @property
    def lane_bits(self) -> int:
        """Bits consumed by one lane (ptr + idx + val)."""
        return self.ptr_bits + self.idx_bits + self.val_bits

    @property
    def used_bits(self) -> int:
        """Bits actually carrying data: ``lanes * lane_bits + 1`` (new_row bit)."""
        return self.lanes * self.lane_bits + 1

    @property
    def packet_bytes(self) -> int:
        """Packet size in bytes as transferred over HBM."""
        return self.packet_bits // 8

    @property
    def max_index(self) -> int:
        """Largest encodable column index."""
        return (1 << self.idx_bits) - 1

    def operational_intensity(self, fill_fraction: float = 1.0) -> float:
        """Non-zeros per byte transferred (the roofline x-axis of Figure 6).

        ``fill_fraction`` scales for padding (placeholder lanes / early packet
        closes); 1.0 is the best case of fully-dense packets.
        """
        if not 0.0 < fill_fraction <= 1.0:
            raise ConfigurationError(
                f"fill_fraction must be in (0, 1], got {fill_fraction}"
            )
        return self.lanes * fill_fraction / self.packet_bytes

    def describe(self) -> str:
        """One-line human-readable summary (used by reports and __str__)."""
        return (
            f"BS-CSR[{self.lanes} lanes x (ptr {self.ptr_bits}b + idx {self.idx_bits}b "
            f"+ val {self.val_bits}b) + new_row = {self.used_bits}/{self.packet_bits} bits]"
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.describe()


def max_lanes(idx_bits: int, val_bits: int, packet_bits: int = DEFAULT_PACKET_BITS) -> int:
    """Largest ``B`` satisfying ``B * (ptr_bits(B) + idx_bits + val_bits) + 1 <= packet_bits``.

    ``ptr_bits`` grows with ``B`` so the equation is solved by downward scan
    from the no-ptr upper bound.
    """
    check_positive_int(idx_bits, "idx_bits")
    check_positive_int(val_bits, "val_bits")
    check_positive_int(packet_bits, "packet_bits")
    upper = (packet_bits - 1) // (idx_bits + val_bits + 1)
    for lanes in range(upper, 0, -1):
        if lanes * (ptr_field_bits(lanes) + idx_bits + val_bits) + 1 <= packet_bits:
            return lanes
    raise LayoutError(
        f"no feasible lane count: idx {idx_bits}b + val {val_bits}b fields do not fit "
        f"a {packet_bits}-bit packet"
    )


def solve_layout(
    n_cols: int,
    val_bits: int,
    packet_bits: int = DEFAULT_PACKET_BITS,
    lanes: int | None = None,
) -> PacketLayout:
    """Build the densest feasible packet layout for a matrix with ``n_cols`` columns.

    Reproduces the paper's design points: ``solve_layout(1024, 20)`` gives
    B = 15 (the 20-bit design), ``solve_layout(1024, 25)`` gives B = 13, and
    ``solve_layout(1024, 32)`` gives B = 11.  Passing ``lanes`` forces a
    smaller-than-maximal B (used for the naïve-COO comparison and ablations).
    """
    idx_bits = index_field_bits(n_cols)
    best = max_lanes(idx_bits, val_bits, packet_bits)
    if lanes is None:
        lanes = best
    else:
        lanes = check_positive_int(lanes, "lanes")
        if lanes > best:
            raise LayoutError(
                f"{lanes} lanes infeasible for idx {idx_bits}b / val {val_bits}b "
                f"in {packet_bits} bits (max {best})"
            )
    return PacketLayout(
        lanes=lanes,
        ptr_bits=ptr_field_bits(lanes),
        idx_bits=idx_bits,
        val_bits=val_bits,
        packet_bits=packet_bits,
    )


def naive_coo_capacity(packet_bits: int = DEFAULT_PACKET_BITS) -> int:
    """Non-zeros per packet for naïve COO: three 32-bit words per entry.

    Figure 3: ``512 // 96 = 5`` non-zeros (480 bits used).
    """
    return packet_bits // (3 * 32)


def optimized_coo_capacity(
    n_rows_bits: int = 32,
    idx_bits: int = 10,
    val_bits: int = 20,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> int:
    """Non-zeros per packet for reduced-precision COO (Figure 3 middle row).

    The row coordinate stays at 32 bits because the number of rows is
    unbounded; with ``idx < 1024`` (10 bits) and 20-bit values this yields
    8 non-zeros per 512-bit packet (496 bits used).
    """
    entry_bits = n_rows_bits + idx_bits + val_bits
    return packet_bits // entry_bits
