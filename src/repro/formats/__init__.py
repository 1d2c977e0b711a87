"""Sparse matrix containers and the BS-CSR streaming format.

This package implements the paper's Section III-B: the Coordinate (COO) and
Compressed Sparse Row (CSR) reference formats, and **Block-Streaming CSR
(BS-CSR)** — the paper's contribution — in which every 512-bit HBM packet is
a self-contained CSR fragment that can be decoded without cross-packet
pointer chasing.

The format has one home for each decision: the encoder's lane starts decide
how rows pack into packets (``encode_bscsr``; ``count_packets`` reads the
same starts without materialising packets), ``decode_lanes`` decides which
lanes belong to which row (every kernel's stream plan and ``decode_to_csr``
read it), and ``save_artifact`` is the one on-disk container.
"""

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.layout import (
    PacketLayout,
    solve_layout,
    ptr_field_bits,
    naive_coo_capacity,
    optimized_coo_capacity,
)
from repro.formats.bscsr import (
    BSCSRMatrix,
    BSCSRStream,
    encode_bscsr,
    encode_bscsr_reference,
    decode_lanes,
    decode_to_csr,
    validate_stream,
)
from repro.formats.bitpack import BitWriter, BitReader, pack_packet, unpack_packet
from repro.formats.stats import (
    PackingStats,
    packing_stats,
    count_packets,
    stats_from_row_lengths,
)
from repro.formats.io import (
    save_artifact,
    load_artifact,
    artifact_digest,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "PacketLayout",
    "solve_layout",
    "ptr_field_bits",
    "naive_coo_capacity",
    "optimized_coo_capacity",
    "BSCSRMatrix",
    "BSCSRStream",
    "encode_bscsr",
    "encode_bscsr_reference",
    "decode_lanes",
    "decode_to_csr",
    "validate_stream",
    "BitWriter",
    "BitReader",
    "pack_packet",
    "unpack_packet",
    "PackingStats",
    "packing_stats",
    "count_packets",
    "stats_from_row_lengths",
    "save_artifact",
    "load_artifact",
    "artifact_digest",
]
