"""Row partitioning of the embedding collection across cores (Section III-A).

The matrix is split into ``c`` contiguous row blocks of (as close as possible
to) ``N/c`` rows each; partition ``i`` is stored in HBM channel ``i`` and
processed by FPGA core ``i``.  Balanced contiguous blocks keep every core's
packet count — and therefore the makespan — even.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.formats.csr import CSRMatrix
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["RowPartition", "partition_rows", "partition_matrix"]


@dataclass(frozen=True)
class RowPartition:
    """A contiguous block of rows ``[start, stop)`` owned by one core."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ConfigurationError(
                f"invalid partition bounds [{self.start}, {self.stop})"
            )

    @property
    def n_rows(self) -> int:
        """Number of rows in the partition."""
        return self.stop - self.start


def partition_rows(n_rows: int, n_partitions: int) -> list[RowPartition]:
    """Split ``n_rows`` into ``n_partitions`` balanced contiguous blocks.

    The first ``n_rows % n_partitions`` blocks get one extra row, so block
    sizes differ by at most one.  ``n_partitions`` may exceed ``n_rows``;
    surplus blocks are empty (their cores finish instantly).
    """
    n_rows = check_non_negative_int(n_rows, "n_rows")
    n_partitions = check_positive_int(n_partitions, "n_partitions")
    base, extra = divmod(n_rows, n_partitions)
    partitions = []
    start = 0
    for i in range(n_partitions):
        size = base + (1 if i < extra else 0)
        partitions.append(RowPartition(start=start, stop=start + size))
        start += size
    return partitions


def partition_matrix(matrix: CSRMatrix, n_partitions: int) -> list[CSRMatrix]:
    """Slice a CSR matrix into balanced row partitions."""
    return [
        matrix.row_slice(p.start, p.stop)
        for p in partition_rows(matrix.n_rows, n_partitions)
    ]
