"""Measurement plumbing shared by the workloads: clocks, percentiles, spans,
memory high-water marks and the machine fingerprint.

Imports nothing from ``repro`` at module level, so the smoke test and
``compare.py`` can use the arithmetic here without the package.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SPINE_DIR / "out"

#: One clock for every span and timer.  CLOCK_MONOTONIC is system-wide on
#: Linux, so daemon-side spans and client-side spans share a time base.
now = time.monotonic


def use_repo_sources() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when it is not there.

    The benchmark runs from a bare checkout (``python3
    benchmarks/spine/run.py``) with no ``PYTHONPATH``, and must fail
    loudly in a directory that holds only the benchmark's own files.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"spine: no package sources at {SRC_DIR}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


# ---------------------------------------------------------------------- #
# Percentiles and medians
# ---------------------------------------------------------------------- #
def tail_percentile(n_samples: int, beyond: int = 10) -> int:
    """Highest reported percentile with at least ``beyond`` samples past it.

    Candidates are the conventional tails; below twenty samples only the
    median is honest.
    """
    for p in (99, 95, 90, 75):
        if n_samples * (100 - p) / 100.0 >= beyond:
            return p
    return 50


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile (NumPy's default rule, no NumPy)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    A span is ``{id, name, start, end, parent, request, ...attrs}``; nesting
    follows the ``with`` structure of the calling thread.  Spans stay in
    memory until :meth:`dump`.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: "list[dict]" = []
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str, request=None, **attrs):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans), "name": name, "start": now(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": request, **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = now()

    def add(self, name: str, start: float, end: float, parent=None,
            request=None, **attrs) -> None:
        """Record a span whose interval was measured elsewhere."""
        if self.enabled:
            self.spans.append({
                "id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent, "request": request, **attrs,
            })

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans) -> "dict[int, float]":
    """Per span id: duration minus the part its child spans cover.

    Children may overlap one another (two replicas running at once), so
    the covered part is the *union* of the child intervals clipped to the
    parent, not their sum.
    """
    children: "dict[int, list]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def coverage(spans, windows) -> float:
    """Share of the timed ``(start, end)`` windows covered by root spans."""
    total = sum(end - start for start, end in windows)
    if total <= 0:
        return 0.0
    roots = sorted(
        (s for s in spans if s["parent"] is None), key=lambda s: s["start"]
    )
    covered = 0.0
    for w_start, w_end in windows:
        cursor = w_start
        for span in roots:
            lo = max(span["start"], cursor)
            hi = min(span["end"], w_end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
    return covered / total


# ---------------------------------------------------------------------- #
# Process and machine facts
# ---------------------------------------------------------------------- #
def _status_kb(field: str, pid: "int | None") -> float:
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{field} not found in {path}")


def vm_hwm_mb(pid: "int | None" = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    return _status_kb("VmHWM", pid) / 1024.0


def vm_rss_kb(pid: "int | None" = None) -> float:
    return _status_kb("VmRSS", pid)


def process_cpu_s() -> float:
    """User + system CPU seconds of this process (children excluded)."""
    t = os.times()
    return t.user + t.system


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> dict:
    """What must match before two result files may be compared."""
    import numpy
    import scipy

    from repro.core.kernels import native_available

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "native_available": bool(native_available()),
    }


# ---------------------------------------------------------------------- #
# Engine proxy for traced serving runs
# ---------------------------------------------------------------------- #
def query_digest(row) -> str:
    """Short content digest of one float64 query row.

    JSON round-trips float64 exactly, so the digest of the row the client
    sent equals the digest of the row the daemon's engine received: it is
    the key that joins engine spans to per-request client spans.
    """
    import hashlib

    import numpy as np

    data = np.ascontiguousarray(row, dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


class TracedEngine:
    """A replica that records one span per ``query_batch`` call.

    ``ClusterRuntime`` accepts any object with ``query_batch``; everything
    else it reads off a replica (``collection``, ``design``, ``matrix``)
    is forwarded to the wrapped engine.  Spans carry the batch size, the
    replica index and a digest of every row.
    """

    def __init__(self, engine, replica: int, spans: list):
        self._engine = engine
        self._replica = int(replica)
        self._spans = spans  # shared list; list.append is atomic

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query_batch(self, queries, top_k):
        start = now()
        out = self._engine.query_batch(queries, top_k)
        end = now()
        self._spans.append({
            "name": "engine.query_batch", "start": start, "end": end,
            "parent": None, "request": None, "replica": self._replica,
            "size": len(queries),
            "digests": [query_digest(row) for row in queries],
        })
        return out
