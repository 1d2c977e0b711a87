"""Unit tests for the bit-level packet writer/reader."""

import numpy as np
import pytest

from repro.errors import PacketDecodeError
from repro.formats.bitpack import BitReader, BitWriter, pack_packet, unpack_packet


class TestBitWriter:
    def test_single_field_lsb_first(self):
        writer = BitWriter(16)
        writer.write(0b101, 3)
        assert writer.to_bytes()[0] == 0b101

    def test_fields_pack_contiguously_across_bytes(self):
        writer = BitWriter(16)
        writer.write(0x3F, 6)
        writer.write(0x3FF, 10)
        data = writer.to_bytes()
        reader = BitReader(data)
        assert reader.read(6) == 0x3F
        assert reader.read(10) == 0x3FF

    def test_zero_width_write_is_noop(self):
        writer = BitWriter(8)
        writer.write(0, 0)
        writer.write(0b101, 3)
        assert writer.to_bytes() == bytes([0b101])

    def test_overflowing_value_rejected(self):
        writer = BitWriter(8)
        with pytest.raises(ValueError):
            writer.write(4, 2)

    def test_negative_value_rejected(self):
        writer = BitWriter(8)
        with pytest.raises(ValueError):
            writer.write(-1, 4)

    def test_buffer_overflow_rejected(self):
        writer = BitWriter(8)
        writer.write(0xFF, 8)
        with pytest.raises(ValueError):
            writer.write(1, 1)

    def test_total_bits_must_be_byte_multiple(self):
        with pytest.raises(ValueError):
            BitWriter(12)

    def test_write_array(self):
        writer = BitWriter(32)
        writer.write_array(np.array([1, 2, 3]), 4)
        reader = BitReader(writer.to_bytes())
        assert reader.read_array(3, 4).tolist() == [1, 2, 3]

    def test_unwritten_tail_is_zero(self):
        writer = BitWriter(16)
        writer.write(1, 1)
        assert writer.to_bytes()[1] == 0


class TestBitReader:
    def test_underflow_raises_decode_error(self):
        reader = BitReader(b"\x00")
        with pytest.raises(PacketDecodeError):
            reader.read(9)

    def test_wide_array_fields_rejected(self):
        reader = BitReader(b"\x00" * 32)
        with pytest.raises(ValueError):
            reader.read_array(1, 65)

    def test_roundtrip_random_fields(self, rng):
        widths = rng.integers(1, 20, size=30)
        values = [int(rng.integers(0, 2**w)) for w in widths]
        total = int(sum(widths))
        writer = BitWriter(((total + 7) // 8) * 8)
        for v, w in zip(values, widths):
            writer.write(v, int(w))
        reader = BitReader(writer.to_bytes())
        assert [reader.read(int(w)) for w in widths] == values


class TestPacketPackUnpack:
    def test_roundtrip(self, rng):
        lanes = 15
        ptr = rng.integers(0, 16, lanes).astype(np.uint16)
        idx = rng.integers(0, 1024, lanes)
        val = rng.integers(0, 2**20, lanes).astype(np.uint64)
        data = pack_packet(True, ptr, idx, val, ptr_bits=4, idx_bits=10, val_bits=20)
        assert len(data) == 64
        new_row, p, i, v = unpack_packet(data, lanes, 4, 10, 20)
        assert new_row is True
        assert p.tolist() == ptr.tolist()
        assert i.tolist() == idx.tolist()
        assert v.tolist() == val.tolist()

    def test_field_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_packet(
                False,
                np.zeros(3), np.zeros(4), np.zeros(3),
                ptr_bits=4, idx_bits=10, val_bits=20,
            )
