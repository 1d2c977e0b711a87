"""repro — reproduction of "Scaling up HBM Efficiency of Top-K SpMV for
Approximate Embedding Similarity on FPGAs" (Parravicini et al., DAC 2021).

The library provides, in pure Python/NumPy:

* the **BS-CSR** streaming sparse format (bit-exact packets, Section III-B);
* the **partitioned Top-K approximation** and its precision theory
  (Section III-A, Eq. 1, Table I);
* a **functional + analytical simulation** of the multi-core HBM FPGA
  design (Algorithm 1, Table II, Figures 5-7);
* **CPU/GPU baseline models** (sparse_dot_topn, cuSPARSE+Thrust);
* workload generators for every Table III matrix;
* experiment runners regenerating every table and figure of the paper.

Quickstart
----------
>>> from repro import TopKSpmvEngine, PAPER_DESIGNS
>>> from repro.data import synthetic_embeddings
>>> import numpy as np
>>> A = synthetic_embeddings(n_rows=50_000, n_cols=512, avg_nnz=20, seed=1)
>>> x = np.abs(np.random.default_rng(2).standard_normal(512)); x /= np.linalg.norm(x)
>>> engine = TopKSpmvEngine(A, design=PAPER_DESIGNS["20b"])
>>> hits = engine.query(x, top_k=10).topk
"""

from repro.core.collection import CompiledCollection, compile_collection
from repro.core.segments import Segment, SegmentedCollection
from repro.core.engine import TopKSpmvEngine, EngineResult, BatchResult
from repro.core.kernels import available_kernels
from repro.core.reference import TopKResult, exact_topk_spmv
from repro.core.approx import approximate_topk_spmv
from repro.core.precision_model import (
    expected_precision,
    estimate_precision_monte_carlo,
)
from repro.formats import BSCSRMatrix, CSRMatrix, PacketLayout, solve_layout
from repro.hw.design import AcceleratorDesign, PAPER_DESIGNS, design_by_name
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "CompiledCollection",
    "compile_collection",
    "Segment",
    "SegmentedCollection",
    "TopKSpmvEngine",
    "EngineResult",
    "BatchResult",
    "available_kernels",
    "TopKResult",
    "exact_topk_spmv",
    "approximate_topk_spmv",
    "expected_precision",
    "estimate_precision_monte_carlo",
    "BSCSRMatrix",
    "CSRMatrix",
    "PacketLayout",
    "solve_layout",
    "AcceleratorDesign",
    "PAPER_DESIGNS",
    "design_by_name",
    "ReproError",
    "__version__",
]
