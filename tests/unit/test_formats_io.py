"""Unit tests for codec names and the artifact container."""

import numpy as np
import pytest

from repro.arithmetic.codecs import codec_from_name
from repro.errors import ConfigurationError, FormatError


class TestCodecFromName:
    @pytest.mark.parametrize("name", ["fixed20", "fixed25", "fixed32", "offset20", "float32", "exact"])
    def test_roundtrip_names(self, name):
        assert codec_from_name(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            codec_from_name("posit16")


class TestArtifactAuxArrays:
    """Derived (aux) buffers: persisted, verified, digest-neutral."""

    def _payload(self):
        return (
            {"a": np.arange(5, dtype=np.int64), "b": np.ones(3)},
            {"cache": np.linspace(0, 1, 4)},
        )

    def test_aux_excluded_from_content_digest(self, tmp_path):
        from repro.formats.io import artifact_digest, save_artifact

        arrays, aux = self._payload()
        plain = save_artifact(tmp_path / "plain.npz", "t", {}, arrays)
        with_aux = save_artifact(tmp_path / "aux.npz", "t", {}, arrays, aux_arrays=aux)
        assert plain == with_aux == artifact_digest(arrays)

    def test_aux_roundtrip_and_header(self, tmp_path):
        from repro.formats.io import load_artifact, save_artifact

        arrays, aux = self._payload()
        path = tmp_path / "aux.npz"
        save_artifact(path, "t", {"extra": 1}, arrays, aux_arrays=aux)
        header, loaded = load_artifact(path, "t")
        assert header["aux"] == ["cache"]
        assert np.array_equal(loaded["cache"], aux["cache"])
        assert np.array_equal(loaded["a"], arrays["a"])

    def test_corrupt_aux_fails_its_own_digest(self, tmp_path):
        from repro.formats.io import load_artifact, save_artifact

        arrays, aux = self._payload()
        path = tmp_path / "aux.npz"
        save_artifact(path, "t", {}, arrays, aux_arrays=aux)
        with np.load(path, allow_pickle=False) as archive:
            entries = {name: archive[name] for name in archive.files}
        entries["cache"] = entries["cache"] + 1.0
        np.savez(path, **entries)
        with pytest.raises(FormatError, match="aux-digest"):
            load_artifact(path, "t")

    def test_aux_name_collision_rejected(self, tmp_path):
        from repro.formats.io import save_artifact

        arrays, _ = self._payload()
        with pytest.raises(FormatError, match="duplicate"):
            save_artifact(
                tmp_path / "x.npz", "t", {}, arrays, aux_arrays={"a": np.ones(2)}
            )
