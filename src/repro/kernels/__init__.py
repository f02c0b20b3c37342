"""Micro-kernel dispatch: vectorized vs reference numerical hot paths.

The paper's sensing-to-action argument (Sec. II) only holds if the loop
runs as fast as the substrate allows, yet the repo's hottest numerical
paths were interpreter-bound: the submanifold sparse 3-D convolution
walked Python dicts of ``(i, j, k)`` tuples per layer, SNN
surrogate-BPTT re-ran one small convolution per timestep, STARNet's
likelihood regret optimized one sample at a time, the LiDAR scanner
raycast one beam against one box at a time (``lidar_raycast``), and
voxelization binned one point at a time (``voxelize``).  This package
hosts **two complete implementations** of each path:

* ``reference``  — the original implementations, moved here verbatim.
  Their op order is untouched, so a run under ``REPRO_KERNELS=reference``
  stays bit-for-bit identical to the committed golden traces.
* ``vectorized`` — gather/scatter index arrays, batched-time conv calls,
  and whole-batch SPSA.  BLAS re-association means results may differ
  from the reference in the last ulps; ``repro verify`` bounds that
  drift with per-scenario tolerance specs (and still compares the
  reference backend exactly).  The sensing kernels (``lidar_raycast``,
  ``voxelize``, ``corruption_stack``) and the BEV match kernel are
  byte-identical to their references instead.

Selection: the ``REPRO_KERNELS`` environment variable picks the
process-wide backend (default ``vectorized``); :func:`kernel_backend`,
the only override, forces one within a ``with`` block (used by the
differential tests and the micro-benchmarks) and restores the previous
selection on exit.  Worker processes inherit the environment, so pooled
runs use the same backend as their parent — the scoped override is
process-local by design.

Every kernel invocation that goes through :func:`kernel_timer` records a
``kernels.<name>.<op>_s`` histogram on the active :mod:`repro.obs`
registry, so ``repro profile`` shows where the vectorized backends win.
Histograms are deliberately used instead of counters: golden traces
record deterministic counters only, and kernel timings must never leak
into them.

Adding a kernel: write a module with one class per backend, instantiate
and :func:`register_kernel` both under the same name, and import the
module at the bottom of this file.  Callers fetch the active
implementation with ``get_kernel(name)`` at call time (never at import
time), so the env switch and scoped overrides always take effect.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from ..obs.registry import get_registry

__all__ = ["BACKENDS", "DEFAULT_BACKEND", "KERNELS_ENV", "KernelError",
           "active_backend", "kernel_backend",
           "register_kernel", "get_kernel", "available_kernels",
           "kernel_timer"]

BACKENDS = ("vectorized", "reference")
DEFAULT_BACKEND = "vectorized"
KERNELS_ENV = "REPRO_KERNELS"


class KernelError(LookupError):
    """Unknown kernel name or backend selection."""


# Scoped override installed by kernel_backend(); checked before the env.
_forced: Optional[str] = None

_REGISTRY: Dict[str, Dict[str, Any]] = {}


def active_backend() -> str:
    """The backend every ``get_kernel`` call resolves to right now."""
    if _forced is not None:
        return _forced
    raw = os.environ.get(KERNELS_ENV, "").strip().lower()
    if not raw:
        return DEFAULT_BACKEND
    if raw not in BACKENDS:
        raise KernelError(
            f"invalid {KERNELS_ENV}={raw!r}; choose from "
            f"{', '.join(BACKENDS)}")
    return raw


@contextmanager
def kernel_backend(name: str):
    """Force one backend within a ``with`` block (this process only)."""
    global _forced
    if name not in BACKENDS:
        raise KernelError(f"unknown kernel backend {name!r}; choose from "
                          f"{', '.join(BACKENDS)}")
    saved = _forced
    _forced = name
    try:
        yield
    finally:
        _forced = saved


def register_kernel(name: str, backend: str, impl: Any) -> None:
    """Register one backend implementation of one kernel."""
    if backend not in BACKENDS:
        raise KernelError(f"unknown kernel backend {backend!r}; choose "
                          f"from {', '.join(BACKENDS)}")
    _REGISTRY.setdefault(name, {})[backend] = impl


def get_kernel(name: str, backend: Optional[str] = None) -> Any:
    """The implementation of ``name`` under the active (or given) backend."""
    impls = _REGISTRY.get(name)
    if impls is None:
        raise KernelError(
            f"unknown kernel {name!r}; registered kernels: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}")
    b = backend if backend is not None else active_backend()
    if b not in BACKENDS:
        raise KernelError(f"unknown kernel backend {b!r}; choose from "
                          f"{', '.join(BACKENDS)}")
    if b not in impls:
        raise KernelError(f"kernel {name!r} has no {b!r} backend")
    return impls[b]


def available_kernels() -> List[str]:
    return sorted(_REGISTRY)


@contextmanager
def kernel_timer(name: str, op: str):
    """Record one kernel call's wall time as a ``repro.obs`` histogram.

    A no-op when observability is disabled, so the reference backend's
    hot loops pay nothing but two clock reads.
    """
    obs = get_registry()
    if not obs.enabled:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        obs.histogram(f"kernels.{name}.{op}_s").observe(
            time.perf_counter() - t0)


# Kernel modules register themselves on import; keep these at the bottom
# so the registry helpers above exist when they run.
from . import corruption_stack  # noqa: E402,F401
from . import lidar_raycast  # noqa: E402,F401
from . import matching  # noqa: E402,F401
from . import regret  # noqa: E402,F401
from . import snn_bptt  # noqa: E402,F401
from . import sparse_conv  # noqa: E402,F401
from . import voxelize  # noqa: E402,F401
