"""IEEE floating-point formats used by the GPU baseline and the F32 design.

The GPU comparison in the paper runs cuSPARSE SpMV in float32 and float16;
the fourth FPGA design point uses float32.  NumPy's ``float16``/``float32``
dtypes are bit-faithful IEEE implementations, so quantising through them
reproduces the value error of those baselines exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FloatFormat", "FLOAT16", "FLOAT32", "quantize_float"]


@dataclass(frozen=True)
class FloatFormat:
    """An IEEE-754 binary floating-point format."""

    name: str
    dtype: np.dtype
    exponent_bits: int
    mantissa_bits: int

    @property
    def total_bits(self) -> int:
        """Storage width in bits (sign + exponent + mantissa)."""
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def max_value(self) -> float:
        """Largest finite representable value."""
        return float(np.finfo(self.dtype).max)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round values to this format and return them widened to float64."""
        values = np.asarray(values, dtype=np.float64)
        return values.astype(self.dtype).astype(np.float64)


FLOAT16 = FloatFormat(name="float16", dtype=np.dtype(np.float16), exponent_bits=5, mantissa_bits=10)
FLOAT32 = FloatFormat(name="float32", dtype=np.dtype(np.float32), exponent_bits=8, mantissa_bits=23)

_BY_NAME = {fmt.name: fmt for fmt in (FLOAT16, FLOAT32)}


def quantize_float(values: np.ndarray, format_name: str) -> np.ndarray:
    """Quantise ``values`` through the named float format (``float16``/``float32``)."""
    try:
        fmt = _BY_NAME[format_name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown float format {format_name!r}; expected one of {sorted(_BY_NAME)}"
        ) from exc
    return fmt.quantize(values)
