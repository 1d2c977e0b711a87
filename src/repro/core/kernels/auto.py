"""The default backend of the per-core candidate path: first of the
preference order that fits the request.

Preference: ``contraction`` (the fastest path when its exactness gate
passes, e.g. the paper's 20-bit design on quantised queries), then
``streaming`` (unconditionally bit-exact, tighter working set than the
reference and able to skip provably-rejected row blocks).  The reference
``gather`` kernel remains one ``kernel="gather"`` away and is the fallback
of every backend here, so "auto" can never produce different bits than the
reference — only produce them faster.  The query path
(:func:`~repro.core.kernels.segmented.run_segmented`) consults no backend:
one rule, read off each segment, picks its fold.
"""

from __future__ import annotations

from repro.core.kernels.base import (
    KernelBackend,
    KernelOutput,
    KernelRequest,
    get_kernel,
    register_kernel,
)

__all__ = ["AutoKernel"]

#: Tried in order; the last entry must support every request.
PREFERENCE = ("contraction", "streaming", "gather")


class AutoKernel(KernelBackend):
    """Delegating backend (see module docstring)."""

    name = "auto"
    fallback = "gather"

    def select(self, request: KernelRequest) -> KernelBackend:
        """The backend this request will actually run on."""
        for name in PREFERENCE:
            backend = get_kernel(name)
            if backend.supports(request):
                return backend
        return get_kernel(self.fallback)  # pragma: no cover - gather is total

    def run(self, request: KernelRequest) -> KernelOutput:
        return self.select(request).run(request)


register_kernel(AutoKernel())
