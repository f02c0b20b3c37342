"""Compiled execution: the artifact, the ``compile_mode()`` scope, routing.

:class:`CompiledModule` ties the pieces together — trace at
construction (loud :class:`~repro.compile.tracer.TraceError` on
untraceable constructs), lower to a fused program, execute it against a
pre-planned :class:`~repro.compile.arena.BufferArena` and return a
private float copy of the output.  It is deliberately **not** a
:class:`repro.nn.Module`: wrapping must not double-count parameters
when a host model holds both the original and the wrapper
(``Module.parameters`` walks attributes), and a compiled artifact is
inference-only — ``backward`` raises :class:`CompileError` instead of
silently training against a stale graph.  Unknown attributes delegate
to the wrapped module so call sites like the Koopman controller's
``model.proj.weight`` keep working.

Inside a :func:`compile_mode` scope, :class:`repro.nn.Sequential`
forwards route here (see :func:`routed_forward`); artifacts are cached
per live Sequential in a :class:`weakref.WeakKeyDictionary`,
untraceable modules warn once (:class:`CompileFallbackWarning`) and
fall back to eager, and graphs whose training-mode BatchNorm makes
batched semantics diverge from the stateful per-sample ``forward``
bypass to eager for ``forward`` only.

Counters live in a module-global :class:`CompileStats` (captures,
fallbacks, runs, fused ops, ...) — *not* in ``repro.obs`` counters,
which the golden traces snapshot; capture latency is recorded as a
``compile.capture_s`` histogram, which goldens ignore by design.
"""

from __future__ import annotations

import sys
import time
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import sequential
from ..nn.layers import Module
from ..obs.registry import get_registry
from .arena import BufferArena
from .fusion import build_program
from .tracer import TraceError, trace

__all__ = ["CompileError", "CompileFallbackWarning", "compile_mode",
           "CompiledModule", "compile_module", "CompileStats",
           "compile_stats"]


class CompileError(RuntimeError):
    """Invalid use of a compiled artifact (training, bad fallback policy)."""


class CompileFallbackWarning(RuntimeWarning):
    """An untraceable module fell back to eager execution (loud, once)."""


@dataclass
class CompileStats:
    """Process-wide compile telemetry (kept out of repro.obs counters so
    golden traces stay byte-identical whether or not compilation ran)."""

    captures: int = 0         # successful traces
    fallbacks: int = 0        # TraceError -> eager fallbacks
    eager_bypasses: int = 0   # forward() bypasses (training-mode BN)
    runs: int = 0             # compiled executions
    fused_elementwise: int = 0

    def snapshot(self) -> dict:
        return dict(vars(self))

    def delta(self, before: dict) -> dict:
        return {k: v - before.get(k, 0) for k, v in vars(self).items()}


_STATS = CompileStats()


def compile_stats() -> CompileStats:
    return _STATS


@contextmanager
def compile_mode():
    """Route every :class:`repro.nn.Sequential` forward inside the block
    through its cached compiled artifact; nestable.

    The scope installs this module as the Sequential router and puts
    the previous router back on exit.
    """
    previous = sequential._router
    sequential._router = sys.modules[__name__]
    try:
        yield
    finally:
        sequential._router = previous


class CompiledModule:
    """An inference-only compiled artifact standing in for a Module."""

    def __init__(self, module: Module):
        t0 = time.perf_counter()
        graph = trace(module)  # may raise TraceError — callers decide policy
        program = build_program(graph)
        self.__dict__["_wrapped"] = module
        self.__dict__["graph"] = graph
        self.__dict__["program"] = program
        self.__dict__["arena"] = BufferArena()
        _STATS.captures += 1
        _STATS.fused_elementwise += program.fused_elementwise
        get_registry().histogram("compile.capture_s").observe(
            time.perf_counter() - t0)

    # -- execution ----------------------------------------------------
    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        # The program's output is an arena view that the next call
        # overwrites; callers get a private copy.
        y = np.copy(self.program.run(np.asarray(x), self.arena))
        _STATS.runs += 1
        return y

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 1:  # per-sample call sites (Koopman encode) lift/squeeze
            return self.forward_batch(x[None, :])[0]
        return self.forward_batch(x)

    def backward(self, grad: np.ndarray):
        raise CompileError(
            "compiled artifacts are inference-only: backward would train "
            "against buffers the arena has already recycled. Keep the "
            "original module for training and exact likelihood-regret "
            "scoring.")

    # -- Module-facing surface (everything else delegates) -----------
    def train(self):
        raise CompileError(
            "compiled artifacts cannot enter training mode; call train() "
            "on the original module and run it eagerly.")

    def __getattr__(self, name: str):
        wrapped = self.__dict__.get("_wrapped")
        if wrapped is None:
            raise AttributeError(name)
        return getattr(wrapped, name)

    def __repr__(self) -> str:
        return (f"CompiledModule({type(self._wrapped).__name__}, "
                f"stages={len(self.program.stages)}, "
                f"fused={self.program.fused_elementwise})")


def _fall_back(module: Module, exc: TraceError, stacklevel: int) -> None:
    _STATS.fallbacks += 1
    warnings.warn(
        f"repro.compile: falling back to eager execution for "
        f"{type(module).__name__}: {exc}",
        CompileFallbackWarning, stacklevel=stacklevel + 1)


def compile_module(module: Module, fallback: str = "error"):
    """Compile ``module``; policy for untraceable constructs is explicit.

    ``fallback="error"`` (default) re-raises the :class:`TraceError`.
    ``fallback="eager"`` warns loudly (:class:`CompileFallbackWarning`),
    bumps the fallback counter, and returns the *original module*
    unchanged — callers keep a working model either way.
    """
    if fallback not in ("error", "eager"):
        raise CompileError(f"unknown fallback policy {fallback!r}")
    try:
        return CompiledModule(module)
    except TraceError as exc:
        if fallback == "error":
            raise
        _fall_back(module, exc, stacklevel=2)
        return module


# ---------------------------------------------------------------- routing
# Inside compile_mode(), Sequential.forward/forward_batch land here.  One
# artifact per live Sequential; fallbacks are remembered so the warning
# fires once per module, not per call.
_ARTIFACTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_FALLBACK = object()  # sentinel: this Sequential is untraceable


def _artifact_for(seq) -> Optional[CompiledModule]:
    entry = _ARTIFACTS.get(seq)
    if entry is None:
        try:
            entry = CompiledModule(seq)
        except TraceError as exc:
            _fall_back(seq, exc, stacklevel=4)
            entry = _FALLBACK
        _ARTIFACTS[seq] = entry
    return None if entry is _FALLBACK else entry


def routed_forward(seq, x: np.ndarray) -> np.ndarray:
    artifact = _artifact_for(seq)
    if artifact is None:
        return seq._eager_forward(x)
    if artifact.graph.forward_unsafe():
        # Training-mode BatchNorm: the stateful per-sample
        # forward is a different function — run it eagerly.
        _STATS.eager_bypasses += 1
        return seq._eager_forward(x)
    seq.__dict__["_ran_compiled"] = True
    return artifact.forward(x)


def routed_forward_batch(seq, x: np.ndarray) -> np.ndarray:
    artifact = _artifact_for(seq)
    if artifact is None:
        return seq._eager_forward_batch(x)
    return artifact.forward_batch(x)
