"""Graph capture: trace a :class:`repro.nn.Module` into an explicit op graph.

Every supported module is a straight-line chain of layers, so the
captured :class:`Graph` is an ordered list of :class:`Node` records, one
per op.  Each layer class traces to fixed ops (subclasses inherit their
nearest ancestor's):

* ``Dense``                    -> ``gemm`` + ``bias_add``
* ``ReLU``                     -> ``relu`` (an elementwise node)
* ``BatchNorm``                -> ``bn_affine`` (running-stats affine,
  the :meth:`forward_batch` inference semantics)
* ``Flatten``                  -> ``flatten`` (a reshape view)
* conv / pool / GRU / Norm2d   -> opaque ``call_module`` nodes (their
  ``forward_batch`` already runs as one fused numpy expression; fusing
  *into* their im2col loops would buy nothing)
* ``Sequential``               -> recursion over its layers

Anything without a rule raises :class:`TraceError` **naming the
offending op**, so untraceable constructs fail loudly at capture time
instead of silently producing a wrong program.  Callers that prefer
eager execution over an error use
:func:`repro.compile.compile_module` with ``fallback="eager"``.

The captured graph encodes ``forward_batch`` (pure inference) semantics.
That matters for the one stateful layer: ``BatchNorm`` in training mode
normalizes with *batch* statistics and mutates its running estimates —
not a pure function of the input, so a compiled artifact can stand in
for its ``forward`` only when the layer is in eval mode.
:meth:`Graph.forward_unsafe` reports exactly this condition and the
mode-routing layer checks it on every ``forward`` call (``training``
flags can flip after capture).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..generative.rmae import Norm2d
from ..nn.layers import (
    BatchNorm,
    Conv2d,
    ConvTranspose2d,
    Dense,
    Flatten,
    GRUCell,
    MaxPool2d,
    Module,
    ReLU,
)
from ..nn.sequential import Sequential

__all__ = ["TraceError", "Node", "Graph", "trace", "supported_layers",
           "ELEMENTWISE_OPS"]


class TraceError(RuntimeError):
    """A module contains a construct the tracer has no rule for."""


# Ops the planner folds onto the producing GEMM/conv output (all
# row-wise, in-place-applicable transforms).
ELEMENTWISE_OPS = frozenset({"bias_add", "relu", "bn_affine"})

# Layer class -> the one op it traces to (subclasses inherit their
# nearest ancestor's entry).  ``Sequential`` and ``Dense`` have rules of
# their own in :func:`_trace_into`.
_LAYER_OPS: Dict[type, str] = {
    ReLU: "relu",
    # Inference-mode BatchNorm is an affine transform of the running stats.
    BatchNorm: "bn_affine",
    Flatten: "flatten",
    # Opaque leaves: their forward_batch is already one fused numpy
    # expression (im2col GEMMs, pooling reductions, the GRU's gate
    # algebra, Norm2d's pure per-sample normalization); the planner
    # treats each as a single stage and still fuses any elementwise
    # tail onto its output.
    Conv2d: "call_module", ConvTranspose2d: "call_module",
    MaxPool2d: "call_module", GRUCell: "call_module", Norm2d: "call_module",
}


class Node(NamedTuple):
    """One op of a captured graph and the layer that computes it."""

    op: str
    layer: Optional[Module]


class Graph:
    """Captured op chain of one module."""

    def __init__(self):
        self.nodes: List[Node] = []

    def add(self, op: str, layer: Optional[Module]) -> None:
        self.nodes.append(Node(op, layer))

    def forward_unsafe(self) -> bool:
        """True while the artifact may NOT stand in for ``forward``.

        The graph encodes inference (``forward_batch``) semantics;
        training-mode ``BatchNorm`` (batch statistics + running-stat
        mutation) makes the per-sample ``forward`` a different function.
        Checked per call because ``train()``/``eval()`` can flip the
        flags after capture.
        """
        return any(isinstance(node.layer, BatchNorm) and node.layer.training
                   for node in self.nodes)


def supported_layers() -> List[str]:
    return sorted(cls.__name__ for cls in (Sequential, Dense, *_LAYER_OPS))


def _trace_into(module: Module, graph: Graph) -> None:
    if isinstance(module, Sequential):
        for layer in module.layers:
            _trace_into(layer, graph)
        return
    if isinstance(module, Dense):
        graph.add("gemm", module)
        graph.add("bias_add", module)
        return
    for cls in type(module).__mro__:
        op = _LAYER_OPS.get(cls)
        if op is not None:
            graph.add(op, module)
            return
    raise TraceError(
        f"no trace rule for op '{type(module).__name__}' "
        f"(module {getattr(module, 'name', None) or type(module).__name__!s});"
        f" traceable layers: {', '.join(supported_layers())}. "
        "Run this module eagerly or wrap it with "
        "compile_module(..., fallback='eager').")


def trace(module: Module) -> Graph:
    """Capture ``module``'s inference forward into a :class:`Graph`.

    Raises :class:`TraceError` (naming the offending op) for constructs
    without a trace rule.
    """
    graph = Graph()
    _trace_into(module, graph)
    return graph
