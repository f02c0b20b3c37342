"""repro.compile: trace-and-compile execution layer for the nn substrate.

The sensing-to-action argument (paper Sec. II-IV) is that edge wins come
from co-optimizing the loop down to the execution substrate.  This
package is that substrate for the numpy models, in one form: **capture**
a module's inference forward into an explicit op graph (:func:`trace`),
**lower** it to a program whose elementwise chains are fused into their
producing stage (:func:`~repro.compile.fusion.build_program`), and run
it against a pre-planned :class:`~repro.compile.arena.BufferArena`, so
steady-state inference does zero fresh allocations and returns a
float64 copy that matches eager (bit for bit without BatchNorm, whose
folded affine differs by rounding).

Usage::

    from repro.compile import compile_module, compile_mode

    fast = compile_module(model)            # explicit artifact
    y = fast.forward_batch(x)

    with compile_mode():                    # Sequentials route through
        model.forward_batch(x)              # cached compiled artifacts

Every compiled artifact is differentially tested against the eager
reference: ``repro verify`` runs a ``compiled`` check over the golden
scenarios, and ``benchmarks/bench_compile.py`` times the compiled form
against eager, with the JSON gated in CI.
"""

from .arena import BufferArena
from .executor import (
    CompiledModule,
    CompileError,
    CompileFallbackWarning,
    CompileStats,
    compile_mode,
    compile_module,
    compile_stats,
)
from .fusion import Program, build_program
from .tracer import (
    ELEMENTWISE_OPS,
    Graph,
    Node,
    TraceError,
    supported_layers,
    trace,
)

__all__ = [
    "trace", "Graph", "Node", "TraceError", "supported_layers",
    "ELEMENTWISE_OPS",
    "build_program", "Program", "BufferArena",
    "CompiledModule", "compile_module", "CompileError",
    "CompileFallbackWarning", "compile_mode",
    "CompileStats", "compile_stats",
]
