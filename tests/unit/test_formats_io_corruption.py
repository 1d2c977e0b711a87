"""Corrupted-persistence suite: torn writes, truncation, quarantine.

A serving tier that survives replica crashes must also survive what those
crashes leave on disk.  This suite drives the persistence layer through the
on-disk failure modes a crash mid-write leaves (torn writes): every
truncated or bit-flipped artifact/manifest must surface as a typed
:class:`~repro.errors.FormatError` naming the bad file — never a raw
numpy/zipfile exception — and the atomic-write protocol must guarantee a
reader always sees either the old artifact or the new one, whole.
"""

import json

import numpy as np
import pytest

from repro.errors import FormatError, ReproError
from repro.formats.io import (
    MANIFEST_FILENAME,
    artifact_digest,
    load_artifact,
    load_manifest,
    save_artifact,
    save_manifest,
)


def _arrays():
    rng = np.random.default_rng(11)
    return {
        "values": rng.standard_normal(257),
        "indices": rng.integers(0, 1000, size=257).astype(np.int64),
    }


@pytest.fixture
def artifact(tmp_path):
    path = tmp_path / "collection.npz"
    save_artifact(path, "test-kind", {"note": "x"}, _arrays())
    return path


#: The torn-write schedule: each fraction is "the crash landed after this
#: share of the bytes hit disk".
TORN_FRACTIONS = (0.0, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.999)


def _assert_truncation_is_typed(artifact, fraction):
    blob = artifact.read_bytes()
    artifact.write_bytes(blob[: int(len(blob) * fraction)])
    try:
        load_artifact(artifact, "test-kind")
    except ReproError as exc:
        assert isinstance(exc, FormatError)
        assert artifact.name in str(exc)
    except Exception as exc:  # noqa: BLE001 - the assertion under test
        pytest.fail(
            f"truncation at {fraction:.0%} leaked a raw "
            f"{type(exc).__name__}: {exc}"
        )
    else:
        pytest.fail("a truncated artifact must not load")


def _assert_tail_cut_is_typed(artifact, cut):
    # Cutting the end of the zip (central directory, then member data)
    # exercises different internal failures than fractional cuts.
    blob = artifact.read_bytes()
    artifact.write_bytes(blob[:-cut])
    with pytest.raises(FormatError, match=artifact.name):
        load_artifact(artifact, "test-kind")


TAIL_CUTS = (1, 4, 17, 100)


class TestTruncationSweep:
    @pytest.mark.parametrize("fraction", TORN_FRACTIONS)
    def test_truncated_artifact_is_a_typed_error(self, artifact, fraction):
        _assert_truncation_is_typed(artifact, fraction)

    @pytest.mark.parametrize("cut", TAIL_CUTS)
    def test_tail_truncation_by_bytes(self, artifact, cut):
        _assert_tail_cut_is_typed(artifact, cut)

    def test_missing_artifact_is_a_typed_error(self, tmp_path):
        with pytest.raises(FormatError, match="does not exist"):
            load_artifact(tmp_path / "never-written.npz", "test-kind")

    def test_garbage_bytes_are_a_typed_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00" * 512)
        with pytest.raises(FormatError, match=path.name):
            load_artifact(path, "test-kind")


class TestVersion2Truncation:
    """Older builds wrote version 2, with derived ``aux`` buffers after the
    content; the loader still reads it, so a torn one must fail as typed."""

    @pytest.fixture
    def v2_artifact(self, tmp_path):
        arrays = _arrays()
        aux = {"op_data": np.random.default_rng(12).standard_normal(257)}
        header = {
            "version": 2,
            "kind": "test-kind",
            "digest": artifact_digest(arrays),
            "aux": sorted(aux),
            "aux_digest": artifact_digest(aux),
        }
        path = tmp_path / "collection-v2.npz"
        with open(path, "wb") as handle:
            np.savez(handle, header=np.array(json.dumps(header)), **arrays, **aux)
        load_artifact(path, "test-kind")  # whole, it loads
        return path

    @pytest.mark.parametrize("fraction", TORN_FRACTIONS)
    def test_truncated_artifact_is_a_typed_error(self, v2_artifact, fraction):
        _assert_truncation_is_typed(v2_artifact, fraction)

    @pytest.mark.parametrize("cut", TAIL_CUTS)
    def test_tail_truncation_by_bytes(self, v2_artifact, cut):
        _assert_tail_cut_is_typed(v2_artifact, cut)

    def test_quarantine_sets_a_torn_file_aside(self, v2_artifact):
        v2_artifact.write_bytes(v2_artifact.read_bytes()[:-100])
        with pytest.raises(FormatError, match=v2_artifact.name):
            load_artifact(v2_artifact, "test-kind", quarantine=True)
        assert not v2_artifact.exists()
        assert v2_artifact.with_name(v2_artifact.name + ".quarantined").exists()


class TestManifestCorruption:
    @pytest.fixture
    def manifest_dir(self, tmp_path):
        root = tmp_path / "segments"
        root.mkdir()
        arrays = _arrays()
        digest = save_artifact(root / "segment-a.npz", "seg", {}, arrays)
        save_manifest(
            root, "coll", {"generation": 1},
            [{"file": "segment-a.npz", "digest": digest}],
        )
        return root

    @pytest.mark.parametrize("fraction", TORN_FRACTIONS)
    def test_truncated_manifest_is_a_typed_error(self, manifest_dir, fraction):
        manifest = manifest_dir / MANIFEST_FILENAME
        blob = manifest.read_bytes()
        truncated = blob[: int(len(blob) * fraction)]
        if truncated == blob:
            pytest.skip("fraction keeps the file whole")
        manifest.write_bytes(truncated)
        try:
            load_manifest(manifest_dir, "coll")
        except ReproError as exc:
            assert isinstance(exc, FormatError)
        except Exception as exc:  # noqa: BLE001 - the assertion under test
            pytest.fail(
                f"manifest truncation leaked a raw {type(exc).__name__}: {exc}"
            )
        else:
            pytest.fail("a truncated manifest must not load")

    def test_truncated_member_is_a_typed_error(self, manifest_dir):
        member = manifest_dir / "segment-a.npz"
        member.write_bytes(member.read_bytes()[:-64])
        load_manifest(manifest_dir, "coll")  # the JSON itself is intact
        with pytest.raises(FormatError, match=member.name):
            load_artifact(member, "seg")

    def test_deleted_member_is_a_typed_error(self, manifest_dir):
        (manifest_dir / "segment-a.npz").unlink()
        with pytest.raises(FormatError, match="missing member"):
            load_manifest(manifest_dir, "coll")


def _tamper_one_byte(path):
    """Flip one bit inside the stored array bytes, keeping the zip legal."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files if k != "header"}
        header = json.loads(str(archive["header"]))
    tampered = dict(arrays)
    victim = tampered["values"].copy()
    victim[0] = -victim[0] if victim[0] != 0 else 1.0
    tampered["values"] = victim
    with open(path, "wb") as handle:
        np.savez(handle, header=np.array(json.dumps(header)), **tampered)


class TestDigestMismatchQuarantine:
    def test_bit_flip_fails_the_digest_check(self, artifact):
        _tamper_one_byte(artifact)
        with pytest.raises(FormatError, match="content-digest"):
            load_artifact(artifact, "test-kind")
        # verify=False trusts the bytes (the caller opted out).
        header, arrays = load_artifact(artifact, "test-kind", verify=False)
        assert header["kind"] == "test-kind"

    def test_quarantine_sets_the_bad_file_aside(self, artifact):
        _tamper_one_byte(artifact)
        with pytest.raises(FormatError, match=artifact.name):
            load_artifact(artifact, "test-kind", quarantine=True)
        quarantined = artifact.with_name(artifact.name + ".quarantined")
        assert not artifact.exists()
        assert quarantined.exists()
        # The evidence is preserved byte-for-byte for forensics...
        with pytest.raises(FormatError):
            load_artifact(quarantined, "test-kind")
        # ...and a fresh save reclaims the original path cleanly.
        digest = save_artifact(artifact, "test-kind", {}, _arrays())
        header, _ = load_artifact(artifact, "test-kind")
        assert header["digest"] == digest

    def test_quarantine_applies_to_truncation_too(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[:100])
        with pytest.raises(FormatError):
            load_artifact(artifact, "test-kind", quarantine=True)
        assert not artifact.exists()
        assert artifact.with_name(artifact.name + ".quarantined").exists()

    def test_clean_load_never_quarantines(self, artifact):
        header, arrays = load_artifact(artifact, "test-kind", quarantine=True)
        assert artifact.exists()
        assert header["note"] == "x"


class TestAtomicSave:
    def test_no_tmp_left_after_success(self, tmp_path):
        path = tmp_path / "a.npz"
        save_artifact(path, "k", {}, _arrays())
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_interrupted_save_preserves_the_old_artifact(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "a.npz"
        old_digest = save_artifact(path, "k", {"gen": 1}, _arrays())

        import repro.formats.io as io_mod

        def exploding_fsync(fd):
            raise OSError("disk pulled mid-save")

        monkeypatch.setattr(io_mod.os, "fsync", exploding_fsync)
        rng = np.random.default_rng(99)
        with pytest.raises(OSError, match="disk pulled"):
            save_artifact(
                path, "k", {"gen": 2}, {"values": rng.standard_normal(64)}
            )
        monkeypatch.undo()
        # The crash consumed the tmp file; the published artifact is still
        # generation 1, whole and digest-clean.
        assert list(tmp_path.glob("*.tmp")) == []
        header, _ = load_artifact(path, "k")
        assert header["gen"] == 1
        assert header["digest"] == old_digest

    def test_reserved_name_fails_before_touching_disk(self, tmp_path):
        path = tmp_path / "a.npz"
        with pytest.raises(FormatError, match="reserved"):
            save_artifact(path, "k", {}, {"header": np.zeros(2)})
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
