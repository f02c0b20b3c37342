"""Fusion + planning: lower a captured graph into an executable program.

The planner walks the straight-line graph once and groups it into
stages.  Each stage has one producer and absorbs the **longest
following chain of elementwise nodes** — bias add, ReLU,
inference-mode BatchNorm affines — which then execute *in place* on
the producer's output instead of allocating one array per op:

* ``gemm``        -> ``x @ W`` written into the stage's arena slot;
* ``call_module`` -> the layer's own ``forward_batch`` (conv/pool/GRU/
  Norm2d);
* ``copy``        -> a leading (or post-flatten) run of elementwise
  nodes with no producer: one copy of the input into an arena slot,
  then the chain;
* ``flatten``     -> a reshape view.  It absorbs no chain: its output
  may alias the caller's input, which must not be written in place.

Chain application is pure in-place ufunc arithmetic (``np.maximum(out=)``
etc.) and touches no allocator in steady state when run against a
:class:`repro.compile.arena.BufferArena`.  Bias adds and ReLU replay the
eager arithmetic exactly; the BatchNorm affine folds into one scale and
shift, so it matches eager to rounding (a few ulps), not bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .tracer import ELEMENTWISE_OPS, Graph

__all__ = ["Program", "Stage", "build_program"]

# One chain entry per fused elementwise node: (op, layer).
ChainOp = Tuple[str, object]


def _apply_chain(y: np.ndarray, chain: List[ChainOp], arena, key: str) -> None:
    """Run an elementwise chain in place on ``y`` (no fresh allocations)."""
    for i, (op, layer) in enumerate(chain):
        if op == "bias_add":
            np.add(y, layer.bias.data, out=y)
        elif op == "relu":
            np.maximum(y, 0.0, out=y)
        elif op == "bn_affine":
            # y <- y * s + t with s = gamma/sqrt(var+eps), t = beta - mean*s.
            # Recomputed into per-stage scratch each call: cheap (O(dim))
            # and keeps the program reading the *live* running stats.
            bn = layer
            dim = bn.gamma.data.shape[0]
            s = arena.out(f"{key}.c{i}.bns", (dim,), y.dtype)
            t = arena.out(f"{key}.c{i}.bnt", (dim,), y.dtype)
            np.add(bn.running_var, bn.eps, out=s)
            np.sqrt(s, out=s)
            np.divide(bn.gamma.data, s, out=s)
            np.multiply(bn.running_mean, s, out=t)
            np.subtract(bn.beta.data, t, out=t)
            y *= s
            y += t
        else:  # pragma: no cover - planner only emits known ops
            raise ValueError(f"unknown elementwise op {op!r}")


# ------------------------------------------------------------ producers
def _gemm(stage: "Stage", x: np.ndarray, arena) -> np.ndarray:
    w = stage.layer.weight.data
    y = arena.out(stage.key, x.shape[:-1] + (w.shape[1],), x.dtype)
    np.matmul(x, w, out=y)
    return y


def _call_module(stage: "Stage", x: np.ndarray, arena) -> np.ndarray:
    return stage.layer.forward_batch(x)


def _copy(stage: "Stage", x: np.ndarray, arena) -> np.ndarray:
    y = arena.out(stage.key, x.shape, x.dtype)
    np.copyto(y, x)
    return y


def _flatten(stage: "Stage", x: np.ndarray, arena) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


_PRODUCERS = {"gemm": _gemm, "call_module": _call_module, "copy": _copy,
              "flatten": _flatten}


class Stage:
    """One producer and the elementwise chain fused onto its output."""

    __slots__ = ("key", "op", "layer", "chain", "_produce")

    def __init__(self, key: str, op: str, layer, chain: List[ChainOp]):
        self.key = key
        self.op = op
        self.layer = layer
        self.chain = chain
        self._produce = _PRODUCERS[op]

    def run(self, x: np.ndarray, arena) -> np.ndarray:
        y = self._produce(self, x, arena)
        _apply_chain(y, self.chain, arena, self.key)
        return y


class Program:
    """An ordered list of stages; ``run`` threads one array through them."""

    def __init__(self, stages: List[Stage]):
        self.stages = stages
        # Elementwise nodes that got no stage of their own: all of them
        # but the first node of each copy stage's chain.
        self.fused_elementwise = (sum(len(s.chain) for s in stages)
                                  - sum(s.op == "copy" for s in stages))

    def run(self, x: np.ndarray, arena) -> np.ndarray:
        for stage in self.stages:
            x = stage.run(x, arena)
        return x


def build_program(graph: Graph) -> Program:
    """Lower ``graph`` into a :class:`Program` of fused stages."""
    nodes = graph.nodes
    stages: List[Stage] = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if node.op in ELEMENTWISE_OPS:  # no producer: the chain starts here
            op, layer, start = "copy", None, i
        else:
            op, layer, start = node.op, node.layer, i + 1
        end = start
        if op != "flatten":
            while end < len(nodes) and nodes[end].op in ELEMENTWISE_OPS:
                end += 1
        chain = [(n.op, n.layer) for n in nodes[start:end]]
        stages.append(Stage(f"s{len(stages)}", op, layer, chain))
        i = end
    return Program(stages)
