"""Unit tests for codec names and the artifact container."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.arithmetic.codecs import codec_from_name
from repro.errors import ConfigurationError, FormatError
from repro.formats.io import artifact_digest, load_artifact, save_artifact


class TestCodecFromName:
    @pytest.mark.parametrize("name", ["fixed20", "fixed25", "fixed32", "offset20", "float32", "exact"])
    def test_roundtrip_names(self, name):
        assert codec_from_name(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            codec_from_name("posit16")


def _save_raw(path, header, arrays):
    """Write a container by hand, the way another build may have."""
    np.savez(path, header=np.array(json.dumps(header)), **arrays)
    return path


def _save_version_2(path, arrays, aux, kind="t"):
    """Write the version-2 layout: content plus ``aux`` derived buffers."""
    header = {
        "version": 2,
        "kind": kind,
        "digest": artifact_digest(arrays),
        "aux": sorted(aux),
        "aux_digest": artifact_digest(aux),
    }
    return _save_raw(path, header, {**arrays, **aux})


def _tobytes_digest(arrays):
    """The digest as first specified: each buffer hashed via ``tobytes()``."""
    sha = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        sha.update(name.encode())
        sha.update(str(arr.dtype).encode())
        sha.update(repr(arr.shape).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


class TestArtifactDigest:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(7, dtype=np.int64),
            np.linspace(0, 1, 5, dtype=np.float32),
            np.array(3.5),
            np.empty(0),
            np.empty((0, 5)),
            np.array([True, False, True]),
            np.arange(40, dtype=np.uint8)[::3],
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            np.arange(6, dtype=">i4"),
        ],
        ids=["int64", "float32", "0-d", "empty", "0x5", "bool", "strided-uint8",
             "fortran", "big-endian"],
    )
    def test_same_bytes_as_tobytes(self, array):
        arrays = {"x": array, "y": np.arange(3, dtype=np.int32)}
        assert artifact_digest(arrays) == _tobytes_digest(arrays)

    def test_hashing_copies_no_buffer(self):
        big = np.arange(2_000_000, dtype=np.float64)  # 16 MB
        tracemalloc.start()
        try:
            artifact_digest({"big": big})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes // 16


class TestSaveArtifact:
    def test_writes_version_1_and_no_aux_entries(self, tmp_path):
        arrays = {"a": np.arange(5, dtype=np.int64), "b": np.ones(3)}
        path = tmp_path / "v1.npz"
        digest = save_artifact(path, "t", {"note": 1}, arrays)
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"]))
            names = set(archive.files)
        assert digest == artifact_digest(arrays) == header["digest"]
        assert header["version"] == 1
        assert "aux" not in header and "aux_digest" not in header
        assert names == {"header", "a", "b"}

    @pytest.mark.parametrize("version", [0, 3, None])
    def test_unreadable_versions_rejected(self, tmp_path, version):
        arrays = {"a": np.arange(5, dtype=np.int64)}
        header = {"version": version, "kind": "t"}
        path = _save_raw(tmp_path / "v.npz", header, arrays)
        with pytest.raises(FormatError, match="artifact version"):
            load_artifact(path, "t")


class TestVersion2Container:
    """Older builds wrote version 2: content plus derived buffers listed in
    the header's ``aux`` entry.  This build reads such a file as content
    only."""

    @pytest.fixture
    def arrays(self):
        return {"a": np.arange(5, dtype=np.int64), "b": np.ones(3)}

    @pytest.fixture
    def aux(self):
        return {"cache": np.linspace(0, 1, 4)}

    def test_aux_members_are_dropped_before_the_digest_check(
        self, tmp_path, arrays, aux
    ):
        path = _save_version_2(tmp_path / "v2.npz", arrays, aux)
        loaded_header, loaded = load_artifact(path, "t")
        assert loaded_header["digest"] == artifact_digest(arrays)
        assert sorted(loaded) == ["a", "b"]
        assert np.array_equal(loaded["a"], arrays["a"])

    def test_same_digest_and_content_as_a_version_1_save(
        self, tmp_path, arrays, aux
    ):
        digest = save_artifact(tmp_path / "v1.npz", "t", {}, arrays)
        v2 = _save_version_2(tmp_path / "v2.npz", arrays, aux)
        header, loaded = load_artifact(v2, "t")
        _, want = load_artifact(tmp_path / "v1.npz", "t")
        assert header["digest"] == digest
        assert sorted(loaded) == sorted(want)
        for name in want:
            assert loaded[name].tobytes() == want[name].tobytes()

    def test_a_corrupt_aux_member_is_not_read(self, tmp_path, arrays, aux):
        path = _save_version_2(tmp_path / "v2.npz", arrays, aux)
        with np.load(path, allow_pickle=False) as archive:
            entries = {name: archive[name] for name in archive.files}
        entries["cache"] = entries["cache"] + 1.0  # no longer matches aux_digest
        np.savez(path, **entries)
        _, loaded = load_artifact(path, "t")
        assert sorted(loaded) == ["a", "b"]

    def test_a_content_bit_flip_still_fails_the_digest_check(
        self, tmp_path, arrays, aux
    ):
        path = _save_version_2(tmp_path / "v2.npz", arrays, aux)
        with np.load(path, allow_pickle=False) as archive:
            entries = {name: archive[name] for name in archive.files}
        entries["b"] = entries["b"].copy()
        entries["b"][0] = -1.0
        np.savez(path, **entries)
        with pytest.raises(FormatError, match="content-digest"):
            load_artifact(path, "t")

    def test_aux_cannot_hide_a_content_member(self, tmp_path, arrays, aux):
        """A header whose ``aux`` list names a content buffer drops it, and
        the content digest then fails: the list cannot mask content."""
        header = {
            "version": 2,
            "kind": "t",
            "digest": artifact_digest(arrays),
            "aux": ["b", "cache"],
        }
        path = _save_raw(tmp_path / "v2.npz", header, {**arrays, **aux})
        with pytest.raises(FormatError, match="content-digest"):
            load_artifact(path, "t")

    def test_aux_naming_an_absent_member_loads(self, tmp_path, arrays):
        header = {
            "version": 2,
            "kind": "t",
            "digest": artifact_digest(arrays),
            "aux": ["op_data"],
        }
        path = _save_raw(tmp_path / "v2.npz", header, arrays)
        _, loaded = load_artifact(path, "t")
        assert sorted(loaded) == ["a", "b"]

    def test_wrong_kind_rejected(self, tmp_path, arrays, aux):
        path = _save_version_2(tmp_path / "v2.npz", arrays, aux, kind="other")
        with pytest.raises(FormatError, match="expected 't'"):
            load_artifact(path, "t")
