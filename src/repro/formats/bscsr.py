"""Block-Streaming CSR (BS-CSR) — the paper's sparse matrix format.

Every 512-bit packet is an independent CSR fragment (Section III-B):

* ``B`` *lanes*, each holding a column index (``idx``) and a
  reduced-precision value (``val``);
* a ``ptr`` array of ``B`` entries recording the *cumulative in-packet
  non-zero count at every row ending* (strictly increasing; 0 pads unused
  slots) — 4 bits per entry for B = 15 instead of 32-bit COO row ids;
* one ``new_row`` bit: 1 when the packet's first lane starts a new row,
  0 when it continues the previous packet's unfinished row.

Row ids are never stored: a streaming consumer counts row endings.  Rows may
span any number of packets; rows with no stored entries get one placeholder
lane with value 0 so the row count stays consistent ("missing rows are
handled with placeholder 0 values").  At most ``rows_per_packet`` (the
paper's ``r``) rows may *end* in one packet — the hardware tracks only ``r``
per-packet row results; the encoder closes a packet early (padding the tail
with zero lanes) when the budget is exhausted.

Encoding conventions chosen where the paper is ambiguous (see DESIGN.md §5):
a row ending exactly at the last occupied lane *does* get its ``ptr`` entry;
the following packet then carries ``new_row = 1``.  A decoder therefore
always emits rows at ``ptr`` boundaries and uses ``new_row`` only to decide
whether to merge the carried partial sum into the first segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arithmetic.codecs import ValueCodec
from repro.errors import ConfigurationError, FormatError, PacketDecodeError
from repro.formats.bitpack import pack_packet, unpack_packet
from repro.formats.csr import CSRMatrix
from repro.formats.layout import PacketLayout, index_field_bits

__all__ = [
    "BSCSRStream",
    "BSCSRMatrix",
    "encode_bscsr",
    "encode_bscsr_reference",
    "decode_lanes",
    "decode_to_csr",
    "validate_stream",
]


@dataclass
class BSCSRStream:
    """A BS-CSR packet stream for one matrix (or one matrix partition).

    The stream is stored as structure-of-arrays over packets (the "logical"
    view); :meth:`to_bytes`/:meth:`from_bytes` give the bit-exact 512-bit
    wire representation.

    Attributes
    ----------
    layout:
        Packet layout (lane count and field widths).
    codec:
        Value codec mapping stored raw codes to real values.
    n_rows, n_cols:
        Logical shape of the encoded matrix.
    nnz:
        Number of genuine non-zero entries (placeholder lanes excluded).
    new_row:
        ``bool[n_packets]`` — the per-packet ``new_row`` bit.
    ptr:
        ``uint16[n_packets, lanes]`` — cumulative counts at row endings,
        zero-padded.
    idx:
        ``int64[n_packets, lanes]`` — column indices (0 in padding lanes).
    val_raw:
        ``uint64[n_packets, lanes]`` — encoded values (0 in padding lanes).
    rows_per_packet:
        The ``r`` constraint the stream was encoded with.
    """

    layout: PacketLayout
    codec: ValueCodec
    n_rows: int
    n_cols: int
    nnz: int
    new_row: np.ndarray
    ptr: np.ndarray
    idx: np.ndarray
    val_raw: np.ndarray
    rows_per_packet: int = field(default=0)

    def __post_init__(self) -> None:
        self.new_row = np.ascontiguousarray(self.new_row, dtype=bool)
        self.ptr = np.ascontiguousarray(self.ptr, dtype=np.uint16)
        self.idx = np.ascontiguousarray(self.idx, dtype=np.int64)
        self.val_raw = np.ascontiguousarray(self.val_raw, dtype=np.uint64)
        lanes = self.layout.lanes
        for name, arr in (("ptr", self.ptr), ("idx", self.idx), ("val_raw", self.val_raw)):
            if arr.ndim != 2 or arr.shape[1] != lanes:
                raise FormatError(
                    f"{name} must have shape (n_packets, {lanes}), got {arr.shape}"
                )
        if len(self.new_row) != self.n_packets:
            raise FormatError(
                f"new_row length {len(self.new_row)} disagrees with "
                f"{self.n_packets} packets"
            )
        if self.rows_per_packet == 0:
            self.rows_per_packet = lanes

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    @property
    def n_packets(self) -> int:
        """Number of packets in the stream."""
        return self.ptr.shape[0]

    @property
    def n_bytes(self) -> int:
        """Bytes transferred over HBM to stream the whole matrix."""
        return self.n_packets * self.layout.packet_bytes

    @property
    def lanes_used(self) -> int:
        """Occupied lanes (non-zeros plus empty-row placeholders)."""
        return int(decode_lanes(self)[0].sum())

    def values(self) -> np.ndarray:
        """Decoded per-lane values, shape ``(n_packets, lanes)`` float64."""
        return self.codec.decode(self.val_raw)

    # ------------------------------------------------------------------ #
    # Bit-exact wire representation
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialise the stream into concatenated 512-bit packets."""
        if self.codec.bits != self.layout.val_bits:
            raise ConfigurationError(
                f"codec '{self.codec.name}' emits {self.codec.bits}-bit codes but the "
                f"layout stores {self.layout.val_bits}-bit values"
            )
        chunks = []
        for p in range(self.n_packets):
            chunks.append(
                pack_packet(
                    bool(self.new_row[p]),
                    self.ptr[p],
                    self.idx[p],
                    self.val_raw[p],
                    ptr_bits=self.layout.ptr_bits,
                    idx_bits=self.layout.idx_bits,
                    val_bits=self.layout.val_bits,
                    packet_bits=self.layout.packet_bits,
                )
            )
        return b"".join(chunks)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        layout: PacketLayout,
        codec: ValueCodec,
        n_rows: int,
        n_cols: int,
        nnz: int | None = None,
        rows_per_packet: int = 0,
    ) -> "BSCSRStream":
        """Deserialise a stream previously produced by :meth:`to_bytes`."""
        packet_bytes = layout.packet_bytes
        if len(data) % packet_bytes:
            raise PacketDecodeError(
                f"stream length {len(data)} is not a multiple of the "
                f"{packet_bytes}-byte packet size"
            )
        n_packets = len(data) // packet_bytes
        new_row = np.zeros(n_packets, dtype=bool)
        ptr = np.zeros((n_packets, layout.lanes), dtype=np.uint16)
        idx = np.zeros((n_packets, layout.lanes), dtype=np.int64)
        val_raw = np.zeros((n_packets, layout.lanes), dtype=np.uint64)
        for p in range(n_packets):
            chunk = data[p * packet_bytes : (p + 1) * packet_bytes]
            flag, pv, iv, vv = unpack_packet(
                chunk, layout.lanes, layout.ptr_bits, layout.idx_bits, layout.val_bits
            )
            new_row[p] = flag
            ptr[p] = pv
            idx[p] = iv.astype(np.int64)
            val_raw[p] = vv
        stream = cls(
            layout=layout,
            codec=codec,
            n_rows=n_rows,
            n_cols=n_cols,
            nnz=nnz if nnz is not None else int((codec.decode(val_raw) != 0.0).sum()),
            new_row=new_row,
            ptr=ptr,
            idx=idx,
            val_raw=val_raw,
            rows_per_packet=rows_per_packet,
        )
        validate_stream(stream)
        return stream


def _check_encode_args(
    matrix: CSRMatrix, layout: PacketLayout, rows_per_packet: int | None
) -> int:
    """Shared argument validation for both encoder implementations."""
    if matrix.n_cols > 0 and index_field_bits(matrix.n_cols) > layout.idx_bits:
        raise ConfigurationError(
            f"layout idx field ({layout.idx_bits} bits) cannot index "
            f"{matrix.n_cols} columns"
        )
    lanes = layout.lanes
    if rows_per_packet is None:
        rows_per_packet = lanes
    if not 1 <= rows_per_packet <= lanes:
        raise ConfigurationError(
            f"rows_per_packet must be in [1, {lanes}], got {rows_per_packet}"
        )
    return rows_per_packet


def _lane_starts(eff: np.ndarray, lanes: int, budget: int) -> np.ndarray:
    """Global lane position at which each row's content starts.

    ``eff`` holds every row's occupied lane count (1 for empty rows — the
    placeholder lane).  Positions include early-close padding: when a row
    would *end* inside a packet that already has ``budget`` row endings, the
    encoder closes that packet (the tail lanes become padding) and the row
    restarts at the next packet boundary.

    Fast path: an early close needs ``budget + 1`` rows ending in one
    packet — row ``j`` and the ``budget`` before it, the earliest of which
    puts at least one lane there — so rows ``j - budget + 1 .. j`` fit in
    ``lanes - 1`` lanes.  When no ``budget`` consecutive rows are that short
    (always so when every row holds ``lanes / budget`` lanes or more, in
    particular for ``budget >= lanes``) the budget is inert and starts are
    a plain exclusive cumsum: one O(n) test that covers the paper's
    workloads.

    Otherwise the first packet a row touches is the only one where the
    budget can bind (later packets it spills into start with zero endings),
    so the event test is vectorised: ``nb(j)`` — how many earlier rows end
    in row ``j``'s starting packet — falls out of one ``searchsorted`` over
    the non-decreasing ending-packet ids.  Everything before the first event
    is exact; an exact scalar scan finishes the remainder.
    """
    ends = np.cumsum(eff)
    starts = ends - eff
    n = len(eff)
    if n <= budget or eff.min() * budget >= lanes:
        return starts
    if (ends[budget:] - ends[:-budget]).min() >= lanes:
        return starts

    end_packet = (ends - 1) // lanes
    start_packet = starts // lanes
    fill = starts - start_packet * lanes
    nb = np.arange(n) - np.searchsorted(end_packet, start_packet)
    event = (fill > 0) & (nb >= budget) & (eff <= lanes - fill)
    if not event.any():
        return starts

    # Exact continuation from the first early close: positions before it are
    # untouched, positions after shift by the padding inserted along the way.
    first = int(np.argmax(event))
    pos = int(starts[first])
    count = int(nb[first])
    eff_list = eff.tolist()
    for j in range(first, n):
        length = eff_list[j]
        fill_j = pos % lanes
        if fill_j and count == budget and length <= lanes - fill_j:
            pos += lanes - fill_j  # close the packet early; tail is padding
            count = 0
        starts[j] = pos
        end = pos + length
        if end % lanes == 0:
            count = 0  # the ending lands on the boundary; next packet is fresh
        elif (end - 1) // lanes == pos // lanes:
            count += 1  # ended in the packet it started in
        else:
            count = 1  # spilled into a new packet; its only ending so far
        pos = end
    return starts


def encode_bscsr(
    matrix: CSRMatrix,
    layout: PacketLayout,
    codec: ValueCodec,
    rows_per_packet: int | None = None,
) -> BSCSRStream:
    """Encode a CSR matrix into a BS-CSR packet stream (vectorised).

    Bit-identical to :func:`encode_bscsr_reference` (the original per-packet
    greedy loop, asserted by the encoder-equivalence property suite) but
    built from whole-array segment ops: row lane positions are one cumsum
    (plus a rare exact fixup for early-closed packets), ``ptr``/``idx``/
    ``val`` are scatters into the flat lane stream, and ``new_row`` is a
    boundary-coverage cumsum.

    Parameters
    ----------
    matrix:
        Source matrix (values are quantised through ``codec``).
    layout:
        Packet layout; its ``idx_bits`` must accommodate ``matrix.n_cols``.
    codec:
        Value codec (fixed point, float32, or exact).
    rows_per_packet:
        The hardware's ``r`` limit on rows ending per packet; defaults to
        ``layout.lanes`` (no constraint beyond lane count).
    """
    rows_per_packet = _check_encode_args(matrix, layout, rows_per_packet)
    lanes = layout.lanes
    pad_code = np.uint64(codec.encode(np.zeros(1))[0])
    n_rows = matrix.n_rows

    if n_rows == 0:
        return BSCSRStream(
            layout=layout,
            codec=codec,
            n_rows=0,
            n_cols=matrix.n_cols,
            nnz=0,
            new_row=np.zeros(0, dtype=bool),
            ptr=np.zeros((0, lanes), dtype=np.uint16),
            idx=np.zeros((0, lanes), dtype=np.int64),
            val_raw=np.zeros((0, lanes), dtype=np.uint64),
            rows_per_packet=rows_per_packet,
        )

    lengths = np.diff(matrix.indptr)
    eff = np.where(lengths == 0, 1, lengths)  # empty rows hold one placeholder
    starts = _lane_starts(eff, lanes, rows_per_packet)
    ends = starts + eff
    n_packets = -(-int(ends[-1]) // lanes)

    # One row ending per ptr slot, in row order within each packet.
    last_lane = ends - 1
    end_packet = last_lane // lanes
    rank = np.arange(n_rows) - np.searchsorted(end_packet, end_packet)
    ptr = np.zeros((n_packets, lanes), dtype=np.uint16)
    ptr[end_packet, rank] = (last_lane % lanes + 1).astype(np.uint16)

    # A packet continues its predecessor's row iff some row's lane span
    # crosses the boundary between them: coverage counting via diff+cumsum.
    new_row = np.ones(n_packets, dtype=bool)
    crosses = end_packet > starts // lanes
    if crosses.any():
        delta = np.zeros(n_packets + 1, dtype=np.int64)
        np.add.at(delta, starts[crosses] // lanes + 1, 1)
        np.add.at(delta, end_packet[crosses] + 1, -1)
        new_row[np.cumsum(delta[:-1]) > 0] = False

    # Lane contents: every stored entry lands at its row's start plus its
    # offset inside the row; placeholder and padding lanes keep the defaults.
    idx_flat = np.zeros(n_packets * lanes, dtype=np.int64)
    val_flat = np.full(n_packets * lanes, pad_code, dtype=np.uint64)
    if matrix.nnz:
        within = np.arange(matrix.nnz, dtype=np.int64) - np.repeat(
            matrix.indptr[:-1], lengths
        )
        lane_pos = np.repeat(starts, lengths) + within
        idx_flat[lane_pos] = matrix.indices
        val_flat[lane_pos] = codec.encode(matrix.data)

    return BSCSRStream(
        layout=layout,
        codec=codec,
        n_rows=n_rows,
        n_cols=matrix.n_cols,
        nnz=matrix.nnz,
        new_row=new_row,
        ptr=ptr,
        idx=idx_flat.reshape(n_packets, lanes),
        val_raw=val_flat.reshape(n_packets, lanes),
        rows_per_packet=rows_per_packet,
    )


def encode_bscsr_reference(
    matrix: CSRMatrix,
    layout: PacketLayout,
    codec: ValueCodec,
    rows_per_packet: int | None = None,
) -> BSCSRStream:
    """The original per-packet greedy encoder (hardware-faithful reference).

    Kept as the ground truth the vectorised :func:`encode_bscsr` and the
    packet counter (:func:`repro.formats.stats.count_packets`, which reads
    the same lane starts) are tested against, and as the baseline
    ``benchmarks/bench_compile.py`` measures the build speedup from.
    """
    rows_per_packet = _check_encode_args(matrix, layout, rows_per_packet)
    lanes = layout.lanes

    raw_all = codec.encode(matrix.data)
    indices = matrix.indices
    indptr = matrix.indptr
    # Padding and placeholder lanes must carry the codec's representation of
    # 0.0 (the raw code 0 for unsigned/float codecs, the offset for signed
    # ones) so they contribute nothing to any dot product.
    pad_code = np.uint64(codec.encode(np.zeros(1))[0])

    packets_new_row: list[bool] = []
    packets_ptr: list[np.ndarray] = []
    packets_idx: list[np.ndarray] = []
    packets_val: list[np.ndarray] = []

    cur_idx = np.zeros(lanes, dtype=np.int64)
    cur_val = np.full(lanes, pad_code, dtype=np.uint64)
    cur_bounds: list[int] = []
    cur_fill = 0
    cur_flag = True  # first packet always starts a new row

    def flush(next_flag: bool) -> None:
        nonlocal cur_idx, cur_val, cur_bounds, cur_fill, cur_flag
        ptr_arr = np.zeros(lanes, dtype=np.uint16)
        ptr_arr[: len(cur_bounds)] = cur_bounds
        packets_new_row.append(cur_flag)
        packets_ptr.append(ptr_arr)
        packets_idx.append(cur_idx)
        packets_val.append(cur_val)
        cur_idx = np.zeros(lanes, dtype=np.int64)
        cur_val = np.full(lanes, pad_code, dtype=np.uint64)
        cur_bounds = []
        cur_fill = 0
        cur_flag = next_flag

    for row in range(matrix.n_rows):
        start, stop = int(indptr[row]), int(indptr[row + 1])
        length = stop - start
        if length == 0:
            # Placeholder lane: one zero entry that ends the (empty) row.
            if cur_fill == lanes or len(cur_bounds) == rows_per_packet:
                flush(next_flag=True)
            cur_fill += 1
            cur_bounds.append(cur_fill)
            continue
        pos = 0
        while pos < length:
            if cur_fill == lanes:
                flush(next_flag=(pos == 0))
            space = lanes - cur_fill
            remaining = length - pos
            if len(cur_bounds) == rows_per_packet and remaining <= space:
                # The row would end here but the per-packet row budget is
                # exhausted: close the packet early (tail lanes become padding).
                flush(next_flag=(pos == 0))
                space = lanes
            take = min(remaining, space)
            cur_idx[cur_fill : cur_fill + take] = indices[start + pos : start + pos + take]
            cur_val[cur_fill : cur_fill + take] = raw_all[start + pos : start + pos + take]
            cur_fill += take
            pos += take
            if pos == length:
                cur_bounds.append(cur_fill)

    if cur_fill or cur_bounds:
        flush(next_flag=True)

    n_packets = len(packets_new_row)
    stream = BSCSRStream(
        layout=layout,
        codec=codec,
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        nnz=matrix.nnz,
        new_row=np.array(packets_new_row, dtype=bool),
        ptr=(
            np.stack(packets_ptr)
            if n_packets
            else np.zeros((0, lanes), dtype=np.uint16)
        ),
        idx=(
            np.stack(packets_idx)
            if n_packets
            else np.zeros((0, lanes), dtype=np.int64)
        ),
        val_raw=(
            np.stack(packets_val)
            if n_packets
            else np.zeros((0, lanes), dtype=np.uint64)
        ),
        rows_per_packet=rows_per_packet,
    )
    return stream


def validate_stream(stream: BSCSRStream) -> None:
    """Structural validation of a packet stream.

    Checks ``ptr`` monotonicity, the row-budget constraint, the ``new_row``
    convention (first packet starts a row; a packet following a fully-closed
    packet must start a row) and total row count.  Raises
    :class:`PacketDecodeError` on any violation.
    """
    lanes = stream.layout.lanes
    total_rows = 0
    for p in range(stream.n_packets):
        bounds = stream.ptr[p]
        valid = bounds[bounds > 0].astype(np.int64)
        n_valid = int((bounds > 0).sum())
        if n_valid and not (bounds[:n_valid] > 0).all():
            raise PacketDecodeError(
                f"packet {p}: ptr padding appears before the last boundary"
            )
        if n_valid:
            if (np.diff(valid) <= 0).any():
                raise PacketDecodeError(f"packet {p}: ptr entries not strictly increasing")
            if valid[-1] > lanes:
                raise PacketDecodeError(
                    f"packet {p}: boundary {valid[-1]} exceeds {lanes} lanes"
                )
        if n_valid > stream.rows_per_packet:
            raise PacketDecodeError(
                f"packet {p}: {n_valid} rows end here, budget is "
                f"{stream.rows_per_packet}"
            )
        total_rows += n_valid
    if stream.n_packets and not stream.new_row[0]:
        raise PacketDecodeError("first packet must have new_row = 1")
    if total_rows != stream.n_rows:
        raise PacketDecodeError(
            f"stream finishes {total_rows} rows but encodes n_rows = {stream.n_rows}"
        )


def decode_lanes(stream: BSCSRStream) -> tuple[np.ndarray, np.ndarray]:
    """The format's decoder: which lanes hold row content, where rows start.

    Returns ``(keep, starts)``.  ``keep`` is a ``bool[n_packets, lanes]``
    mask that drops padding: the lanes after a packet's last ``ptr``
    boundary when the next packet starts a new row (``new_row = 1``), and
    the final packet's tail.  Every other lane belongs to a row, so rows are
    contiguous segments of the flattened kept lanes and ``starts[i]`` is
    where row ``i``'s segment begins.  Raises :class:`PacketDecodeError`
    when the stream's boundaries disagree with its declared row count.
    """
    lanes = stream.layout.lanes
    bounds = stream.ptr.astype(np.int64)
    valid = bounds > 0
    closes = np.ones(stream.n_packets, dtype=bool)
    closes[:-1] = stream.new_row[1:]
    kept_per_packet = np.where(closes, bounds.max(axis=1, initial=0), lanes)
    keep = np.arange(lanes)[None, :] < kept_per_packet[:, None]
    first_kept = np.cumsum(kept_per_packet) - kept_per_packet
    ends = first_kept[np.nonzero(valid)[0]] + bounds[valid]
    if len(ends) != stream.n_rows:
        raise PacketDecodeError(
            f"stream has {len(ends)} row boundaries, declares {stream.n_rows} rows"
        )
    return keep, np.concatenate([[0], ends])[:-1]


def decode_to_csr(stream: BSCSRStream) -> CSRMatrix:
    """Reconstruct the matrix as CSR through :func:`decode_lanes`.

    Zero-valued lanes are dropped: placeholder lanes (empty rows) and values
    whose quantised code is zero carry no information for SpMV.  For lossless
    codecs this is an exact inverse of :func:`encode_bscsr` on matrices with
    no explicitly-stored zeros.
    """
    validate_stream(stream)
    keep, starts = decode_lanes(stream)
    values = stream.values()[keep]
    nonzero = values != 0.0
    seen = np.concatenate([[0], np.cumsum(nonzero)])
    return CSRMatrix(
        indptr=seen[np.append(starts, len(values))],
        indices=stream.idx[keep][nonzero],
        data=values[nonzero],
        n_cols=stream.n_cols,
    )


@dataclass
class BSCSRMatrix:
    """A full matrix encoded as one BS-CSR stream per partition.

    This is the container the multi-core accelerator consumes: partition ``i``
    lives in HBM channel ``i`` and is processed by core ``i`` (Section III-A).
    """

    streams: list[BSCSRStream]
    row_offsets: np.ndarray  # global first row of each partition
    n_rows: int
    n_cols: int

    @classmethod
    def encode(
        cls,
        matrix: CSRMatrix,
        layout: PacketLayout,
        codec: ValueCodec,
        n_partitions: int = 1,
        rows_per_packet: int | None = None,
        boundaries: "np.ndarray | None" = None,
    ) -> "BSCSRMatrix":
        """Partition ``matrix`` row-wise and encode each partition.

        ``boundaries`` (``n_partitions + 1`` non-decreasing cuts from 0 to
        ``n_rows``) overrides the default balanced split — a skew-aware
        placement packs unequal row counts per channel to equalise nnz.
        """
        from repro.core.partition import RowPartition, partition_rows  # local import: no cycle at module load

        if boundaries is None:
            parts = partition_rows(matrix.n_rows, n_partitions)
        else:
            boundaries = np.asarray(boundaries, dtype=np.int64)
            if (
                len(boundaries) != n_partitions + 1
                or boundaries[0] != 0
                or boundaries[-1] != matrix.n_rows
                or (np.diff(boundaries) < 0).any()
            ):
                raise FormatError(
                    f"boundaries must be {n_partitions + 1} non-decreasing "
                    f"cuts from 0 to {matrix.n_rows}, got {boundaries!r}"
                )
            parts = [
                RowPartition(int(boundaries[p]), int(boundaries[p + 1]))
                for p in range(n_partitions)
            ]
        streams = []
        offsets = []
        for part in parts:
            sub = matrix.row_slice(part.start, part.stop)
            streams.append(encode_bscsr(sub, layout, codec, rows_per_packet))
            offsets.append(part.start)
        return cls(
            streams=streams,
            row_offsets=np.array(offsets, dtype=np.int64),
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
        )

    @property
    def n_partitions(self) -> int:
        """Number of partitions (= cores = HBM channels used)."""
        return len(self.streams)

    @property
    def total_packets(self) -> int:
        """Total packets across partitions."""
        return sum(s.n_packets for s in self.streams)

    @property
    def total_bytes(self) -> int:
        """Total HBM bytes across partitions."""
        return sum(s.n_bytes for s in self.streams)

    @property
    def nnz(self) -> int:
        """Total genuine non-zeros."""
        return sum(s.nnz for s in self.streams)

    def to_csr(self) -> CSRMatrix:
        """Reassemble the full matrix (partition order) as CSR."""
        import scipy.sparse as sp

        if not self.streams:
            return CSRMatrix(
                indptr=np.zeros(1, dtype=np.int64),
                indices=np.empty(0, dtype=np.int64),
                data=np.empty(0, dtype=np.float64),
                n_cols=self.n_cols,
            )
        blocks = [decode_to_csr(s).to_scipy() for s in self.streams]
        return CSRMatrix.from_scipy(sp.vstack(blocks, format="csr"))
