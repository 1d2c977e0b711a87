"""Unsigned/signed fixed-point formats (Qm.n) and quantisation.

The paper's FPGA designs store matrix values as unsigned fixed point:

* ``Q1.31`` — 32-bit design,
* ``Q1.24`` — 25-bit design,
* ``Q1.19`` — 20-bit design,

where ``Qm.n`` means ``m`` integer bits and ``n`` fractional bits
(total width ``m + n``; one extra sign bit when signed).  Embeddings are
L2-normalised and non-negative in the paper's workloads, so all stored
values and all dot products lie in ``[0, 1]`` and Q1.n never saturates in
practice; saturation is still modelled for robustness.

Accumulation note: the hardware accumulates products in a full-width
fixed-point adder tree (exact).  We model products and sums in float64,
whose 2^-52 relative error is at least 2^20 times smaller than the coarsest
quantisation step we study (2^-19) for the row lengths in the evaluation
(tens of non-zeros), so ordering decisions are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "FixedPointFormat",
    "Q1_19",
    "Q1_24",
    "Q1_31",
    "PAPER_FIXED_POINT_FORMATS",
]


@dataclass(frozen=True)
class FixedPointFormat:
    """A Qm.n fixed-point number format.

    Parameters
    ----------
    integer_bits:
        Number of integer bits ``m`` (>= 0).
    fraction_bits:
        Number of fractional bits ``n`` (>= 0).
    signed:
        When True, a two's-complement sign bit is added on top of
        ``integer_bits + fraction_bits``.
    """

    integer_bits: int
    fraction_bits: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise ConfigurationError(
                f"fixed-point bit counts must be >= 0, got Q{self.integer_bits}.{self.fraction_bits}"
            )
        if self.integer_bits + self.fraction_bits == 0:
            raise ConfigurationError("fixed-point format must have at least one bit")

    # ------------------------------------------------------------------ #
    # Structural properties
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Total storage width in bits (including the sign bit if signed)."""
        return self.integer_bits + self.fraction_bits + (1 if self.signed else 0)

    @property
    def scale(self) -> int:
        """The integer scale factor ``2**fraction_bits``."""
        return 1 << self.fraction_bits

    @property
    def resolution(self) -> float:
        """The quantisation step (value of one least-significant bit)."""
        return 1.0 / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (self.max_raw) / self.scale

    @property
    def min_value(self) -> float:
        """Smallest representable value (0 when unsigned)."""
        return self.min_raw / self.scale

    @property
    def max_raw(self) -> int:
        """Largest raw integer code."""
        magnitude_bits = self.integer_bits + self.fraction_bits
        return (1 << magnitude_bits) - 1

    @property
    def min_raw(self) -> int:
        """Smallest raw integer code (negative when signed)."""
        if not self.signed:
            return 0
        return -(1 << (self.integer_bits + self.fraction_bits))

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``Q1.19`` or ``sQ1.19``."""
        prefix = "sQ" if self.signed else "Q"
        return f"{prefix}{self.integer_bits}.{self.fraction_bits}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    # ------------------------------------------------------------------ #
    # Quantisation
    # ------------------------------------------------------------------ #
    def to_raw(self, values: np.ndarray) -> np.ndarray:
        """Quantise real values to raw integer codes (round-to-nearest, saturating).

        Values outside the representable range saturate to the closest
        representable code, matching hardware saturation logic.
        """
        values = np.asarray(values, dtype=np.float64)
        raw = np.rint(values * self.scale)
        raw = np.clip(raw, self.min_raw, self.max_raw)
        return raw.astype(np.int64)

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Convert raw integer codes back to float64 values."""
        raw = np.asarray(raw)
        if raw.size and (raw.max(initial=self.min_raw) > self.max_raw or raw.min(initial=self.max_raw) < self.min_raw):
            raise ConfigurationError(
                f"raw codes out of range for {self.name}: "
                f"expected [{self.min_raw}, {self.max_raw}]"
            )
        return np.asarray(raw, dtype=np.float64) / self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantise real values onto the format's grid (returns float64).

        This is the composition ``from_raw(to_raw(values))`` and is the
        operation applied to matrix values and to the query vector before
        the simulated fixed-point dot products.
        """
        return self.to_raw(values).astype(np.float64) / self.scale

    def representable(self, values: np.ndarray, tolerance: float = 0.0) -> np.ndarray:
        """Boolean mask of values already on the quantisation grid and in range."""
        values = np.asarray(values, dtype=np.float64)
        on_grid = np.abs(values * self.scale - np.rint(values * self.scale)) <= tolerance * self.scale
        in_range = (values >= self.min_value) & (values <= self.max_value)
        return on_grid & in_range


#: 20-bit unsigned design value format (Table II row "20 bits").
Q1_19 = FixedPointFormat(integer_bits=1, fraction_bits=19, signed=False)

#: 25-bit unsigned design value format (Table II row "25 bits").
Q1_24 = FixedPointFormat(integer_bits=1, fraction_bits=24, signed=False)

#: 32-bit unsigned design value format (Table II row "32 bits").
Q1_31 = FixedPointFormat(integer_bits=1, fraction_bits=31, signed=False)

#: The fixed-point formats evaluated in the paper, keyed by storage width.
PAPER_FIXED_POINT_FORMATS: dict[int, FixedPointFormat] = {
    20: Q1_19,
    25: Q1_24,
    32: Q1_31,
}
