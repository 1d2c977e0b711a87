"""Every input the benchmark feeds the program, generated from ``--seed``.

The same seed gives the same corpora, query pools, probes and traffic
schedule; the program under test only ever sees the generated arrays.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.data.synthetic import synthetic_embeddings, zipf_embeddings
from repro.utils.rng import sample_unit_queries

import spec


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """An independent generator per (seed, purpose) pair.

    Named streams keep e.g. the probe queries unchanged when the pool
    size changes.
    """
    return np.random.default_rng([int(seed), zlib.crc32(label.encode("utf-8"))])


def make_corpus(name: str, seed: int, smoke: bool = False):
    """The named corpus as a :class:`~repro.formats.csr.CSRMatrix`."""
    c = spec.CORPORA[name]
    rng = stream_rng(seed, f"corpus:{name}")
    if c.kind == "zipf":
        return zipf_embeddings(c.rows(smoke), c.n_cols, c.avg_nnz, seed=rng)
    return synthetic_embeddings(
        c.rows(smoke), c.n_cols, c.avg_nnz, distribution="uniform", seed=rng
    )


def query_pool(name: str, seed: int, count: int) -> np.ndarray:
    """``count`` unit-norm non-negative queries for the named corpus."""
    c = spec.CORPORA[name]
    return sample_unit_queries(stream_rng(seed, f"pool:{name}"), count, c.n_cols)


def probe_queries(name: str, seed: int) -> np.ndarray:
    """The fixed probes the correctness and recall checks run on."""
    c = spec.CORPORA[name]
    return sample_unit_queries(
        stream_rng(seed, f"probes:{name}"), spec.N_PROBES, c.n_cols
    )


def traffic_schedule(
    seed: int, length: int, pool_size: int,
    repeat_fraction: float = spec.LIVE["repeat_fraction"],
    window: int = spec.LIVE["repeat_window"],
) -> np.ndarray:
    """Pool indices of the request stream, in send order.

    A request repeats one of the previous ``window`` requests with
    probability ``repeat_fraction`` (so the daemon's exact-result cache
    sees real repeat traffic); otherwise it is the next unused pool entry,
    wrapping around a pool far larger than the cache.
    """
    rng = stream_rng(seed, "traffic")
    repeat = rng.random(length) < repeat_fraction
    back = rng.integers(1, window + 1, size=length)
    schedule = np.empty(length, dtype=np.int64)
    fresh = 0
    for i in range(length):
        if repeat[i] and i > 0:
            schedule[i] = schedule[max(0, i - int(back[i]))]
        else:
            schedule[i] = fresh % pool_size
            fresh += 1
    return schedule
