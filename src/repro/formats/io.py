"""Persistence for compiled artifacts: one container plus a manifest.

A deployed similarity-search service encodes its collection once and serves
it for days, so the encoded artifact must be storable.  Two layers:

* the **artifact container** (``save_artifact``/``load_artifact``): one
  uncompressed ``.npz`` holding flat numpy buffers plus a single JSON
  header entry carrying structure and a SHA-256 content digest.  Loading
  is buffer-verbatim — arrays come back exactly as stored and slicing them
  into per-partition views copies nothing — which is what gives
  :class:`~repro.core.collection.CompiledCollection` its instant cold-start.
  An artifact stores content only: the digest covers every buffer in the
  file, and a cache derived from them is rebuilt by its owner on first use;
* the **manifest** (``save_manifest``/``load_manifest``): a versioned JSON
  file over a directory of member artifacts, the mutable half of a
  segmented collection.

The raw 512-bit wire image of one stream (what the host DMA would write
into HBM) is :meth:`~repro.formats.bscsr.BSCSRStream.to_bytes`.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.errors import FormatError, ReproError

__all__ = [
    "save_artifact",
    "load_artifact",
    "artifact_digest",
    "save_manifest",
    "load_manifest",
    "MANIFEST_FILENAME",
]

_FORMAT_VERSION = 1

#: Container versions this build can read.  Version 2 files, written by
#: older builds, also carry derived buffers named in the header's ``aux``
#: list; the loader drops them unread.
_READABLE_VERSIONS = (1, 2)

_HEADER_KEY = "header"


@contextmanager
def _corruption_as_format_error(path: "str | Path", what: str):
    """Surface low-level container decode failures as typed errors.

    ``np.load`` over a truncated, bit-flipped or otherwise damaged ``.npz``
    leaks whatever its zip/npy internals hit first — ``BadZipFile``,
    ``OSError``, ``EOFError``, ``ValueError``, ``KeyError`` — none of which
    name the file or say "your artifact is broken".  Every loader wraps its
    archive access in this guard so callers always see one typed
    :class:`FormatError` naming the bad file; library errors (already
    typed) pass through untouched.
    """
    try:
        yield
    except ReproError:
        raise
    except FileNotFoundError as exc:
        raise FormatError(f"{path} does not exist") from exc
    except (zipfile.BadZipFile, OSError, EOFError, ValueError, KeyError) as exc:
        raise FormatError(
            f"{path} is not a readable {what} (corrupt or truncated): {exc}"
        ) from exc


def artifact_digest(arrays: "dict[str, np.ndarray]") -> str:
    """SHA-256 content digest of a named buffer set.

    Covers names, dtypes, shapes and raw bytes in sorted-name order, so any
    bit flip in any buffer — or a renamed/missing/extra buffer — changes the
    digest.  The header itself is not covered (it stores the digest).
    Each buffer is hashed in place through the buffer protocol (the same
    bytes as ``tobytes()``, without its copy).
    """
    sha = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        sha.update(name.encode())
        sha.update(str(arr.dtype).encode())
        sha.update(repr(arr.shape).encode())
        sha.update(arr)
    return sha.hexdigest()


def save_artifact(
    path: "str | Path",
    kind: str,
    header: dict,
    arrays: "dict[str, np.ndarray]",
) -> str:
    """Store named buffers + a JSON header as one uncompressed ``.npz``.

    The header is augmented with ``version``, ``kind`` and the content
    ``digest`` over ``arrays`` (also returned, so callers need not re-hash);
    :func:`load_artifact` re-derives the digest to detect corruption.
    Uncompressed on purpose: artifact load time is a serving cold-start
    cost.  The file lands at exactly ``path`` — an open handle is passed to
    ``np.savez`` so it cannot append ``.npz`` behind the caller's back.

    The write is **crash-safe**: bytes go to a ``<path>.tmp`` sibling which
    is fsynced and then atomically renamed over ``path``, so a process kill
    mid-save leaves either the old artifact or the new one, never a torn
    file.  The stray ``.tmp`` from an interrupted save is removed on error
    and overwritten by the next save.
    """
    if _HEADER_KEY in arrays:
        raise FormatError(f"array name {_HEADER_KEY!r} is reserved for the header")
    digest = artifact_digest(arrays)
    full_header = {
        "version": _FORMAT_VERSION,
        "kind": kind,
        "digest": digest,
        **header,
    }
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as handle:
            np.savez(
                handle,
                **{_HEADER_KEY: np.array(json.dumps(full_header))},
                **arrays,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return digest


def load_artifact(
    path: "str | Path", kind: str, verify: bool = True, quarantine: bool = False
) -> "tuple[dict, dict[str, np.ndarray]]":
    """Load an artifact stored by :func:`save_artifact`; returns (header, arrays).

    Raises :class:`FormatError` when the file is unreadable (truncated or
    bit-flipped containers surface as typed errors naming the file, never
    raw zip/numpy exceptions), has no header, declares a different ``kind``
    or version, or (with ``verify=True``) when the stored digest does not
    match the loaded buffers.  Buffers a version-2 file lists in its
    header's ``aux`` entry are derived caches, not content: they are dropped
    unread and not returned.

    With ``quarantine=True`` a file that fails to load is renamed to
    ``<path>.quarantined`` before the error propagates, so a serving tier
    restarting in a crash loop sets the bad artifact aside (for forensics)
    instead of tripping over it on every boot; the raised error still names
    the original path.
    """
    try:
        with _corruption_as_format_error(path, "artifact container"):
            with np.load(path, allow_pickle=False) as archive:
                if _HEADER_KEY not in archive:
                    raise FormatError(f"{path} has no artifact header")
                try:
                    header = json.loads(str(archive[_HEADER_KEY]))
                except json.JSONDecodeError as exc:
                    raise FormatError(
                        f"{path} has a malformed artifact header"
                    ) from exc
                if not isinstance(header, dict):
                    raise FormatError(f"{path} has a malformed artifact header")
                if header.get("kind") != kind:
                    raise FormatError(
                        f"{path} holds {header.get('kind')!r}, expected {kind!r}"
                    )
                if header.get("version") not in _READABLE_VERSIONS:
                    raise FormatError(
                        f"{path} has artifact version {header.get('version')!r}, "
                        f"this build reads versions {list(_READABLE_VERSIONS)}"
                    )
                skip = {_HEADER_KEY, *header.get("aux", ())}
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name not in skip
                }
        if verify:
            digest = artifact_digest(arrays)
            if digest != header.get("digest"):
                raise FormatError(
                    f"{path} failed its content-digest check "
                    f"(stored {header.get('digest')!r}, computed {digest!r}); "
                    "the artifact is corrupted or was edited by hand"
                )
    except FormatError:
        if quarantine:
            src = Path(path)
            try:
                os.replace(src, src.with_name(src.name + ".quarantined"))
            except OSError:
                pass  # the load error matters more than the rename
        raise
    return header, arrays


#: Manifest container version this build writes.
_MANIFEST_VERSION = 1

#: Manifest container versions this build can read.
_READABLE_MANIFEST_VERSIONS = (1,)

#: File name of the manifest inside a manifest directory.
MANIFEST_FILENAME = "MANIFEST.json"


def save_manifest(
    path: "str | Path",
    kind: str,
    header: dict,
    members: "list[dict]",
    prune_prefix: "str | None" = "segment-",
) -> None:
    """Write a versioned manifest over a directory of member artifacts.

    A *manifest* is the mutable half of a multi-artifact container: ``path``
    is a directory holding one ``.npz`` artifact per member (each saved via
    :func:`save_artifact`, named by the caller — conventionally by content
    digest, which is what makes unchanged members reusable across saves),
    and a small :data:`MANIFEST_FILENAME` JSON file carrying ``version``,
    ``kind``, the caller's ``header`` (e.g. a collection *generation*
    counter) and one entry per member.  Each member entry must name its
    ``file`` (relative to ``path``) and its content ``digest`` —
    :func:`load_manifest` cross-checks both against the artifacts on disk.

    Rewriting a manifest is cheap by construction: only the JSON file and
    any *new* member artifacts touch disk; members already present (same
    digest-derived name) are reused verbatim.  ``prune_prefix`` (default
    ``"segment-"``) deletes stale ``<prefix>*.npz`` files no longer
    referenced by any entry, so a compaction that merges members does not
    leak their superseded artifacts; pass ``None`` to keep them.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    referenced: "dict[str, str]" = {}
    for i, entry in enumerate(members):
        if "file" not in entry or "digest" not in entry:
            raise FormatError(
                f"manifest member {i} must carry 'file' and 'digest', got "
                f"{sorted(entry)}"
            )
        name = str(entry["file"])
        if "/" in name or "\\" in name or name == MANIFEST_FILENAME:
            raise FormatError(f"manifest member file name {name!r} is invalid")
        # Content addressing makes sharing one file across members legal
        # (two segments with identical contents), but the same file name
        # claiming two different digests is an authoring bug.
        if referenced.setdefault(name, str(entry["digest"])) != str(entry["digest"]):
            raise FormatError(
                f"manifest member file {name!r} listed with two digests"
            )
    payload = {
        "version": _MANIFEST_VERSION,
        "kind": kind,
        "members": members,
        **{k: v for k, v in header.items() if k not in ("version", "kind", "members")},
    }
    manifest_path = path / MANIFEST_FILENAME
    tmp_path = path / (MANIFEST_FILENAME + ".tmp")
    tmp_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    tmp_path.replace(manifest_path)  # atomic on POSIX: readers never see a torn file
    if prune_prefix:
        for stale in path.glob(f"{prune_prefix}*.npz"):
            if stale.name not in referenced:
                stale.unlink()


def load_manifest(path: "str | Path", kind: str) -> "tuple[dict, list[dict]]":
    """Load a manifest written by :func:`save_manifest`; returns (header, members).

    Validates the container version and ``kind`` and that every member's
    artifact file exists under ``path``.  Member artifact *contents* are not
    read here — callers load each via :func:`load_artifact` (which verifies
    the content digest) and should cross-check it against the member entry's
    ``digest``.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise FormatError(f"{path} has no {MANIFEST_FILENAME}")
    try:
        payload = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path} is malformed JSON") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{manifest_path} must hold a JSON object")
    if payload.get("kind") != kind:
        raise FormatError(
            f"{manifest_path} holds {payload.get('kind')!r}, expected {kind!r}"
        )
    if payload.get("version") not in _READABLE_MANIFEST_VERSIONS:
        raise FormatError(
            f"{manifest_path} has manifest version {payload.get('version')!r}, "
            f"this build reads versions {list(_READABLE_MANIFEST_VERSIONS)}"
        )
    members = payload.pop("members", None)
    if not isinstance(members, list):
        raise FormatError(f"{manifest_path} has no member list")
    for i, entry in enumerate(members):
        if not isinstance(entry, dict) or "file" not in entry or "digest" not in entry:
            raise FormatError(
                f"{manifest_path}: member {i} must carry 'file' and 'digest'"
            )
        if not (path / str(entry["file"])).is_file():
            raise FormatError(
                f"{manifest_path} references missing member file {entry['file']!r}"
            )
    return payload, members
