"""HBM2 memory-subsystem model (Alveo U280).

The U280 exposes 8 GB of HBM2 through 32 pseudo-channels with an aggregate
460 GB/s peak.  The paper's design gives each core exclusive use of one
channel and reads 512-bit packets in maximum-length AXI4 bursts (256 beats),
which is what lets the multi-core layout scale linearly with channels
(Figure 6a's rooflines: 13.2 GB/s x cores).

Three bandwidth tiers are modelled (see :mod:`repro.hw.calibration`):

* ``peak`` — datasheet channel bandwidth (14.375 GB/s);
* ``streaming`` — long-burst achievable rate (≈13.2 GB/s, Shuhai FCCM'20),
  the roofline ceiling;
* ``sustained`` — what an end-to-end query attains after refresh/page/drain
  effects (fitted; the rate the timing model uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityError, ConfigurationError
from repro.hw.calibration import CALIBRATION, CalibrationConstants
from repro.utils.validation import check_positive_int

__all__ = ["HBMConfig", "HBMChannel", "ALVEO_U280_HBM"]

_GB = 1e9


@dataclass(frozen=True)
class HBMConfig:
    """An HBM stack configuration."""

    n_channels: int = 32
    channel_peak_gbps: float = 14.375
    streaming_efficiency: float = CALIBRATION.hbm_streaming_efficiency
    sustained_fraction: float = CALIBRATION.hbm_sustained_fraction
    burst_beats: int = 256
    beat_bytes: int = 64
    capacity_bytes: int = 8 * 2**30

    def __post_init__(self) -> None:
        check_positive_int(self.n_channels, "n_channels")
        if self.channel_peak_gbps <= 0:
            raise ConfigurationError(
                f"channel_peak_gbps must be > 0, got {self.channel_peak_gbps}"
            )
        for name in ("streaming_efficiency", "sustained_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")

    # ------------------------------------------------------------------ #
    # Per-channel rates
    # ------------------------------------------------------------------ #
    @property
    def channel_peak_bps(self) -> float:
        """Datasheet bandwidth of one pseudo-channel, bytes/s."""
        return self.channel_peak_gbps * _GB

    @property
    def channel_streaming_bps(self) -> float:
        """Long-burst achievable bandwidth of one channel (roofline ceiling)."""
        return self.channel_peak_bps * self.streaming_efficiency

    @property
    def channel_sustained_bps(self) -> float:
        """End-to-end attained bandwidth of one channel (timing model rate)."""
        return self.channel_streaming_bps * self.sustained_fraction

    @property
    def burst_bytes(self) -> int:
        """Bytes moved by one maximum-length AXI4 burst."""
        return self.burst_beats * self.beat_bytes

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def aggregate_peak_gbps(self, n_channels: int | None = None) -> float:
        """Aggregate datasheet bandwidth over ``n_channels`` (GB/s)."""
        return self._channels(n_channels) * self.channel_peak_gbps

    def aggregate_streaming_gbps(self, n_channels: int | None = None) -> float:
        """Aggregate streaming bandwidth (Fig. 6a: 13.2 GB/s per core)."""
        return self._channels(n_channels) * self.channel_streaming_bps / _GB

    def _channels(self, n_channels: int | None) -> int:
        if n_channels is None:
            return self.n_channels
        n_channels = check_positive_int(n_channels, "n_channels")
        if n_channels > self.n_channels:
            raise CapacityError(
                f"{n_channels} channels requested, stack exposes {self.n_channels}"
            )
        return n_channels

    def channel(self) -> "HBMChannel":
        """Instantiate one pseudo-channel."""
        return HBMChannel(config=self)


@dataclass(frozen=True)
class HBMChannel:
    """One pseudo-channel serving a single core's packet stream."""

    config: HBMConfig = field(default_factory=HBMConfig)

    def bursts_for(self, n_bytes: int) -> int:
        """Number of maximum-length AXI4 bursts needed for ``n_bytes``."""
        if n_bytes < 0:
            raise ConfigurationError(f"n_bytes must be >= 0, got {n_bytes}")
        burst = self.config.burst_bytes
        return -(-n_bytes // burst)

    def transfer_time_s(self, n_bytes: int, rate: str = "sustained") -> float:
        """Time to stream ``n_bytes``, using the chosen bandwidth tier."""
        rates = {
            "peak": self.config.channel_peak_bps,
            "streaming": self.config.channel_streaming_bps,
            "sustained": self.config.channel_sustained_bps,
        }
        try:
            bandwidth = rates[rate]
        except KeyError as exc:
            raise ConfigurationError(
                f"rate must be one of {sorted(rates)}, got {rate!r}"
            ) from exc
        if n_bytes < 0:
            raise ConfigurationError(f"n_bytes must be >= 0, got {n_bytes}")
        return n_bytes / bandwidth


def hbm_from_calibration(constants: CalibrationConstants) -> HBMConfig:
    """Build an :class:`HBMConfig` from a calibration registry."""
    return HBMConfig(
        n_channels=constants.hbm_channels,
        channel_peak_gbps=constants.hbm_channel_peak_gbps,
        streaming_efficiency=constants.hbm_streaming_efficiency,
        sustained_fraction=constants.hbm_sustained_fraction,
    )


#: The board evaluated in the paper: 32 channels, 460 GB/s aggregate peak.
ALVEO_U280_HBM = hbm_from_calibration(CALIBRATION)
