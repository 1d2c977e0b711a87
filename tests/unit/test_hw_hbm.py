"""Unit tests for the HBM model."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.hw.hbm import ALVEO_U280_HBM, HBMChannel, HBMConfig


class TestConfig:
    def test_u280_has_32_channels_460_gbps(self):
        assert ALVEO_U280_HBM.n_channels == 32
        assert ALVEO_U280_HBM.aggregate_peak_gbps() == pytest.approx(460.0)

    def test_streaming_rate_matches_figure6(self):
        # Figure 6a: 13.2 GB/s per core.
        assert ALVEO_U280_HBM.channel_streaming_bps / 1e9 == pytest.approx(13.2, abs=0.05)

    def test_figure6_aggregates(self):
        for cores, gbps in [(1, 13.2), (8, 105.6), (16, 211.2), (32, 422.4)]:
            assert ALVEO_U280_HBM.aggregate_streaming_gbps(cores) == pytest.approx(
                gbps, rel=0.01
            )

    def test_sustained_below_streaming(self):
        assert ALVEO_U280_HBM.channel_sustained_bps < ALVEO_U280_HBM.channel_streaming_bps

    def test_burst_bytes(self):
        assert ALVEO_U280_HBM.burst_bytes == 256 * 64

    def test_channel_overallocation_rejected(self):
        with pytest.raises(CapacityError):
            ALVEO_U280_HBM.aggregate_peak_gbps(33)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            HBMConfig(streaming_efficiency=1.5)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            HBMConfig(channel_peak_gbps=-1)


class TestChannel:
    def test_transfer_time_tiers_ordered(self):
        channel = ALVEO_U280_HBM.channel()
        n = 10**9
        assert (
            channel.transfer_time_s(n, "peak")
            < channel.transfer_time_s(n, "streaming")
            < channel.transfer_time_s(n, "sustained")
        )

    def test_bursts_for(self):
        channel = ALVEO_U280_HBM.channel()
        assert channel.bursts_for(0) == 0
        assert channel.bursts_for(1) == 1
        assert channel.bursts_for(16384) == 1
        assert channel.bursts_for(16385) == 2

    def test_unknown_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ALVEO_U280_HBM.channel().transfer_time_s(64, "warp")

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            ALVEO_U280_HBM.channel().transfer_time_s(-1)
