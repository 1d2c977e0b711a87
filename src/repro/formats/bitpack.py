"""Bit-level packing of BS-CSR packets.

The hardware reads 512-bit packets from HBM.  This module provides the
bit-exact wire representation: a :class:`BitWriter`/:class:`BitReader` pair
for arbitrary-width little-endian bit fields, and packet-level helpers that
lay out a BS-CSR packet exactly as in Figure 3 of the paper:

``[new_row: 1 bit][ptr[0..B): p bits each][idx[0..B): i bits each][val[0..B): v bits each][zero padding]``

Fields are packed LSB-first within the packet (bit 0 of the packet is the
``new_row`` bit), matching the byte-serialised order a streaming AXI master
would emit.  Unused tail bits are zero.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PacketDecodeError

__all__ = ["BitWriter", "BitReader", "pack_packet", "unpack_packet"]


class BitWriter:
    """Append arbitrary-width unsigned bit fields into a fixed-size buffer."""

    def __init__(self, total_bits: int):
        if total_bits <= 0 or total_bits % 8 != 0:
            raise ValueError(f"total_bits must be a positive multiple of 8, got {total_bits}")
        self.total_bits = total_bits
        self._buffer = bytearray(total_bits // 8)
        self._cursor = 0

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as an unsigned field of ``width`` bits (LSB first)."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if width == 0:
            return
        value = int(value)
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} unsigned bits")
        if self._cursor + width > self.total_bits:
            raise ValueError(
                f"packet overflow: writing {width} bits at offset {self._cursor} "
                f"exceeds {self.total_bits} bits"
            )
        cursor = self._cursor
        remaining = width
        while remaining > 0:
            byte_index, bit_offset = divmod(cursor, 8)
            take = min(8 - bit_offset, remaining)
            chunk = value & ((1 << take) - 1)
            self._buffer[byte_index] |= chunk << bit_offset
            value >>= take
            cursor += take
            remaining -= take
        self._cursor = cursor

    def write_array(self, values: np.ndarray, width: int) -> None:
        """Append each element of ``values`` as a ``width``-bit field."""
        for value in np.asarray(values).ravel():
            self.write(int(value), width)

    def to_bytes(self) -> bytes:
        """Return the packed buffer (unwritten tail bits are zero)."""
        return bytes(self._buffer)


class BitReader:
    """Extract arbitrary-width unsigned bit fields from a byte buffer."""

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self.total_bits = len(self._data) * 8
        self._cursor = 0

    def read(self, width: int) -> int:
        """Consume and return the next ``width`` bits as an unsigned int."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if self._cursor + width > self.total_bits:
            raise PacketDecodeError(
                f"packet underflow: reading {width} bits at offset {self._cursor} "
                f"exceeds {self.total_bits} bits"
            )
        value = 0
        shift = 0
        cursor = self._cursor
        remaining = width
        while remaining > 0:
            byte_index, bit_offset = divmod(cursor, 8)
            take = min(8 - bit_offset, remaining)
            chunk = (self._data[byte_index] >> bit_offset) & ((1 << take) - 1)
            value |= chunk << shift
            shift += take
            cursor += take
            remaining -= take
        self._cursor = cursor
        return value

    def read_array(self, count: int, width: int) -> np.ndarray:
        """Consume ``count`` fields of ``width`` bits into a uint64 array."""
        if width > 64:
            raise ValueError(f"array fields wider than 64 bits unsupported, got {width}")
        return np.array([self.read(width) for _ in range(count)], dtype=np.uint64)


def pack_packet(
    new_row: bool,
    ptr: np.ndarray,
    idx: np.ndarray,
    val_raw: np.ndarray,
    ptr_bits: int,
    idx_bits: int,
    val_bits: int,
    packet_bits: int = 512,
) -> bytes:
    """Serialise one BS-CSR packet to its wire representation.

    ``ptr``, ``idx`` and ``val_raw`` must all have exactly B (= lane count)
    elements; padding lanes carry zeros.  The caller guarantees the layout's
    capacity equation, but an explicit overflow check is kept as defence.
    """
    lanes = len(ptr)
    if not (len(idx) == len(val_raw) == lanes):
        raise ValueError(
            f"field length mismatch: ptr={len(ptr)}, idx={len(idx)}, val={len(val_raw)}"
        )
    writer = BitWriter(packet_bits)
    writer.write(1 if new_row else 0, 1)
    writer.write_array(ptr, ptr_bits)
    writer.write_array(idx, idx_bits)
    writer.write_array(val_raw, val_bits)
    return writer.to_bytes()


def unpack_packet(
    data: bytes,
    lanes: int,
    ptr_bits: int,
    idx_bits: int,
    val_bits: int,
) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
    """Deserialise one BS-CSR packet; inverse of :func:`pack_packet`.

    Returns ``(new_row, ptr, idx, val_raw)`` with uint64 field arrays.
    """
    reader = BitReader(data)
    new_row = bool(reader.read(1))
    ptr = reader.read_array(lanes, ptr_bits)
    idx = reader.read_array(lanes, idx_bits)
    val_raw = reader.read_array(lanes, val_bits)
    return new_row, ptr, idx, val_raw
