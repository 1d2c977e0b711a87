"""Host memory roof: a copy / triad ladder over growing arrays.

The software analogue of the peak HBM bandwidth the paper divides by: the
kernels' computed GB/s is reported as a fraction of the triad figure
measured here, on the same machine, in the same traced run.  Bytes are
*computed* from array sizes (NumPy cannot fuse the triad, so it is counted
as the two passes it really makes), never read from a hardware counter.

The roof is the figure at the largest array.  It should be at least four
times the reported last-level cache; where memory or time do not allow
that, both sizes are stated and the figure is labelled ``cache_assisted``.

Run alone: ``python3 benchmarks/spine/host_roof.py``.
"""

from __future__ import annotations

import glob
import json
import time

import numpy as np

#: First-touch page faults dominate the ladder's cost on a VM, so the arrays
#: are allocated once at the top size and the lower rungs are views of them.
MAX_ARRAY_MB = 64
MIN_ARRAY_MB = 1
PASS_SECONDS = 0.12
MIN_REPS = 3


def last_level_cache_mb() -> float:
    """Largest cache ``/sys`` reports for cpu0 (0.0 when it reports none)."""
    best = 0.0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read().strip()
        except OSError:
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(text[-1:], None)
        if scale is not None and text[:-1].isdigit():
            best = max(best, int(text[:-1]) * scale)
    return best


def _median_seconds(step) -> float:
    times = []
    until = time.monotonic() + PASS_SECONDS
    while len(times) < MIN_REPS or time.monotonic() < until:
        t = time.monotonic()
        step()
        times.append(time.monotonic() - t)
    return float(np.median(times))


def measure_roof() -> dict:
    """Run the ladder; returns the rungs and the headline figures."""
    llc_mb = last_level_cache_mb()
    rungs = []
    top_n = MAX_ARRAY_MB * (1 << 20) // 8
    full_a, full_b, full_c = np.ones(top_n), np.full(top_n, 1.5), np.full(top_n, 2.5)
    mb = MIN_ARRAY_MB
    while mb <= MAX_ARRAY_MB:
        n = mb * (1 << 20) // 8
        a, b, c = full_a[:n], full_b[:n], full_c[:n]

        def copy():
            np.copyto(a, b)

        def triad():  # a = b + 3.0 * c, as the two passes NumPy makes
            np.multiply(c, 3.0, out=a)
            np.add(a, b, out=a)

        nbytes = n * 8
        rungs.append({
            "array_mb": mb,
            "copy_gbps": 2 * nbytes / _median_seconds(copy) / 1e9,
            "triad_gbps": 5 * nbytes / _median_seconds(triad) / 1e9,
        })
        mb *= 4
    top = rungs[-1]
    return {
        "rungs": rungs,
        "llc_mb": llc_mb,
        "array_mb": float(top["array_mb"]),
        "copy_gbps": top["copy_gbps"],
        "triad_gbps": top["triad_gbps"],
        "cache_assisted": top["array_mb"] < 4 * llc_mb,
        "bytes": "computed from array sizes",
    }


if __name__ == "__main__":
    print(json.dumps(measure_roof(), indent=2))
