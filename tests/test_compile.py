"""Tests for :mod:`repro.compile` — tracing, fusion, the buffer arena,
mode routing, and compiled monitor scoring."""

import warnings

import numpy as np
import pytest

import repro.nn.layers as nn_layers
from repro.compile import (
    CompiledModule,
    CompileError,
    CompileFallbackWarning,
    TraceError,
    build_program,
    compile_mode,
    compile_module,
    compile_stats,
    supported_layers,
    trace,
)
from repro.kernels import BACKENDS, kernel_backend
from repro.nn.layers import (
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
from repro.nn.sequential import Sequential, mlp


def _rng(seed=0):
    return np.random.default_rng(seed)


# --------------------------------------------------------- layer registry
# One (constructor, example input shape) per public repro.nn layer.  The
# parametrized test below walks repro.nn.layers.__all__, so adding a new
# layer without a trace rule (or without a case here) fails loudly.
LAYER_CASES = {
    "Dense": (lambda: Dense(6, 4, rng=_rng(1)), (3, 6)),
    "ReLU": (ReLU, (3, 5)),
    "BatchNorm": (lambda: BatchNorm(5), (3, 5)),
    "Flatten": (Flatten, (3, 2, 4)),
    "Conv2d": (lambda: Conv2d(2, 3, rng=_rng(3)), (2, 2, 6, 6)),
    "ConvTranspose2d": (lambda: ConvTranspose2d(2, 3, rng=_rng(4)),
                        (2, 2, 5, 5)),
    "MaxPool2d": (MaxPool2d, (2, 2, 6, 6)),
    "GRUCell": (lambda: GRUCell(4, 3, rng=_rng(5)), (3, 4)),
}


@pytest.mark.parametrize("name",
                         [n for n in nn_layers.__all__ if n != "Module"])
def test_every_nn_layer_traces_and_matches_eager(name):
    assert name in LAYER_CASES, (
        f"layer {name} is public in repro.nn.layers but has no trace "
        f"test case — add one (and a trace rule if needed)")
    factory, shape = LAYER_CASES[name]
    layer = factory()
    model = Sequential(layer)
    model.eval()
    x = _rng(10).standard_normal(shape)
    graph = trace(model)
    assert graph.nodes and all(n.layer is layer for n in graph.nodes)
    compiled = CompiledModule(model)
    np.testing.assert_allclose(compiled.forward_batch(x),
                               model._eager_forward_batch(x),
                               rtol=0, atol=1e-12)


def test_supported_layers_cover_public_registry():
    missing = (set(nn_layers.__all__) - {"Module", "Sequential"}
               - set(supported_layers()))
    assert not missing, f"layers without trace rules: {missing}"


def test_trace_error_names_offending_op():
    class FancyCustomOp(Module):
        def forward_batch(self, x):
            return x

    with pytest.raises(TraceError) as exc:
        trace(Sequential(Dense(3, 3, rng=_rng(0)), FancyCustomOp()))
    msg = str(exc.value)
    assert "FancyCustomOp" in msg
    assert "Dense" in msg  # lists the traceable layers
    assert "fallback='eager'" in msg


# ----------------------------------------------------------------- parity
def _batchnorm(dim, seed):
    """BatchNorm whose inference affine is not the identity."""
    bn = BatchNorm(dim)
    rng = _rng(seed)
    bn.running_mean = rng.standard_normal(dim)
    bn.running_var = rng.uniform(0.5, 2.0, dim)
    bn.gamma.data[...] = rng.uniform(0.5, 1.5, dim)
    bn.beta.data[...] = rng.standard_normal(dim)
    return bn


def _mixed_model():
    # Every elementwise op the fusion pass keeps (bias_add, relu,
    # bn_affine), and both stages without a producer: the leading chain
    # and the chain after flatten run as copy stages.
    m = Sequential(
        BatchNorm(10), ReLU(),
        Dense(10, 16, rng=_rng(1), name="p.fc0"), ReLU(), _batchnorm(16, 5),
        Flatten(), _batchnorm(16, 6), ReLU(),
        Dense(16, 4, rng=_rng(3), name="p.fc1"))
    m.eval()
    return m


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_matches_eager_under_both_kernel_backends(backend):
    model = _mixed_model()
    assert [s.op for s in build_program(trace(model)).stages] == [
        "copy", "gemm", "flatten", "copy", "gemm"]
    x = _rng(7).standard_normal((9, 10))
    with kernel_backend(backend):
        eager = model._eager_forward_batch(x)
        got = CompiledModule(model).forward_batch(x)
    np.testing.assert_allclose(got, eager, rtol=0, atol=1e-12)


def test_conv_stack_compiled_bit_identical():
    model = Sequential(
        Conv2d(1, 3, rng=_rng(1)), ReLU(), MaxPool2d(2), Flatten(),
        Dense(3 * 4 * 4, 8, rng=_rng(2)), ReLU(), Dense(8, 2, rng=_rng(3)))
    model.eval()
    x = _rng(4).standard_normal((5, 1, 8, 8))
    assert np.array_equal(CompiledModule(model).forward_batch(x),
                          model._eager_forward_batch(x))


def test_forward_lifts_1d_input():
    model = mlp([6, 8, 3], rng=_rng(0))
    model.eval()
    x = _rng(1).standard_normal(6)
    got = CompiledModule(model).forward(x)
    assert got.shape == (3,)
    np.testing.assert_allclose(got, model._eager_forward(x),
                               rtol=0, atol=1e-12)


# ----------------------------------------------------------------- fusion
def test_fusion_absorbs_elementwise_chains():
    model = mlp([8, 16, 4], rng=_rng(0))  # gemm+bias+relu, gemm+bias
    prog = build_program(trace(model))
    assert len(prog.stages) == 2
    assert prog.fused_elementwise == 3  # bias, relu, bias


# ------------------------------------------------------------------ arena
def test_arena_zero_steady_state_allocations():
    model = _mixed_model()
    art = CompiledModule(model)
    x = _rng(3).standard_normal((8, 10))
    art.forward_batch(x)
    before = art.arena.allocations
    for _ in range(5):
        art.forward_batch(x)
    assert art.arena.allocations == before
    assert art.arena.slot_count() > 0
    assert art.arena.nbytes() > 0


def test_arena_grows_capacity_then_serves_views():
    model = mlp([6, 12, 3], rng=_rng(0))
    model.eval()
    art = CompiledModule(model)
    small = _rng(1).standard_normal((4, 6))
    big = _rng(2).standard_normal((32, 6))
    art.forward_batch(small)
    grew = art.arena.allocations
    assert art.forward_batch(big).shape == (32, 3)
    assert art.arena.allocations > grew  # capacity grew for the bigger batch
    after_big = art.arena.allocations
    # Any batch at or under the grown capacity is a view, no new backing.
    assert art.forward_batch(_rng(3).standard_normal((16, 6))).shape == (16, 3)
    assert art.forward_batch(small).shape == (4, 3)
    assert art.arena.allocations == after_big
    np.testing.assert_allclose(art.forward_batch(small),
                               model._eager_forward_batch(small),
                               rtol=0, atol=0)


def test_copy_output_protects_result():
    model = mlp([4, 6, 2], rng=_rng(0))
    model.eval()
    art = CompiledModule(model)
    a = art.forward_batch(np.ones((2, 4)))
    kept = np.copy(a)
    art.forward_batch(np.full((2, 4), 3.0))  # would overwrite an arena view
    np.testing.assert_array_equal(a, kept)


# ----------------------------------------------------- inference-only API
def test_compiled_module_refuses_training():
    art = CompiledModule(mlp([3, 2], rng=_rng(0)))
    with pytest.raises(CompileError):
        art.backward(np.ones((1, 2)))
    with pytest.raises(CompileError):
        art.train()


def test_compiled_module_delegates_attributes():
    model = mlp([3, 2], rng=_rng(0))
    art = CompiledModule(model)
    assert art.layers is model.layers
    assert len(art.parameters()) == len(model.parameters())


def test_compiled_module_is_not_a_module():
    # Wrapping must not double-count parameters if a host model holds
    # both the original and the artifact as attributes.
    assert not isinstance(CompiledModule(mlp([3, 2], rng=_rng(0))), Module)


# ---------------------------------------------------------------- routing
def test_mode_default_and_context():
    model = mlp([4, 3], rng=_rng(0))
    model.eval()
    x = np.zeros((2, 4))

    def compiled_runs():
        before = compile_stats().snapshot()
        model.forward_batch(x)
        return compile_stats().delta(before)["runs"]

    assert compiled_runs() == 0  # eager by default
    with compile_mode():
        assert compiled_runs() == 1
        with compile_mode():
            assert compiled_runs() == 1
        assert compiled_runs() == 1  # leaving a nested scope keeps routing
    assert compiled_runs() == 0
    with pytest.raises(RuntimeError, match="boom"):
        with compile_mode():
            raise RuntimeError("boom")
    assert compiled_runs() == 0  # an exception still restores eager


def test_routing_caches_one_artifact_per_sequential():
    model = mlp([4, 3], rng=_rng(0))
    model.eval()
    x = np.zeros((2, 4))
    before = compile_stats().snapshot()
    with compile_mode():
        model.forward_batch(x)
        model.forward_batch(x)
        model.forward(x)
    delta = compile_stats().delta(before)
    assert delta["captures"] == 1
    assert delta["runs"] == 3


def test_backward_after_routed_compiled_forward_raises():
    model = mlp([4, 3], rng=_rng(0))
    model.eval()
    x = np.zeros((2, 4))
    with compile_mode():
        model.forward(x)
    with pytest.raises(CompileError, match="backward after a compiled"):
        model.backward(np.ones((2, 3)))
    model.forward(x)  # an eager forward re-arms training
    model.backward(np.ones((2, 3)))


def test_training_mode_batchnorm_bypasses_forward_only():
    model = Sequential(Dense(4, 4, rng=_rng(0)), BatchNorm(4))
    x = _rng(2).standard_normal((3, 4))
    before = compile_stats().snapshot()
    with compile_mode():
        model.forward(x)          # training BatchNorm: stateful, bypasses
        batched = model.forward_batch(x)  # pure inference: compiled
    delta = compile_stats().delta(before)
    assert delta["eager_bypasses"] == 1
    assert delta["runs"] == 1
    np.testing.assert_allclose(batched, model._eager_forward_batch(x),
                               rtol=0, atol=1e-12)


def test_untraceable_sequential_falls_back_with_warning():
    class Opaque(Module):
        def forward(self, x):
            return x

        def forward_batch(self, x):
            return x

    model = Sequential(Dense(3, 3, rng=_rng(0)), Opaque())
    model.eval()
    x = _rng(1).standard_normal((2, 3))
    before = compile_stats().snapshot()
    with compile_mode():
        with pytest.warns(CompileFallbackWarning, match="Opaque"):
            first = model.forward_batch(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # cached fallback: warn once
            second = model.forward_batch(x)
    assert compile_stats().delta(before)["fallbacks"] == 1
    np.testing.assert_array_equal(first, model._eager_forward_batch(x))
    np.testing.assert_array_equal(second, first)


def test_compile_module_fallback_policies():
    class Opaque(Module):
        def forward_batch(self, x):
            return x

    bad = Sequential(Opaque())
    with pytest.raises(TraceError):
        compile_module(bad)
    with pytest.warns(CompileFallbackWarning):
        got = compile_module(bad, fallback="eager")
    assert got is bad
    with pytest.raises(CompileError, match="fallback"):
        compile_module(bad, fallback="maybe")


def test_routed_sequential_cannot_go_stale():
    # Routing caches one artifact per Sequential, so the layer chain must
    # not change after the first compiled forward.
    model = mlp([4, 8, 3], rng=_rng(0))
    model.eval()
    x = _rng(1).standard_normal((2, 4))
    with compile_mode():
        model.forward_batch(x)
    assert not hasattr(model, "append")
    with pytest.raises(TypeError):
        model.layers[1] = ReLU()
    with compile_mode():
        np.testing.assert_array_equal(model.forward_batch(x),
                                      model._eager_forward_batch(x))


# ---------------------------------------------------------------- serving
def test_compiled_monitor_runner_matches_eager():
    from repro.core.components import Percept
    from repro.serve import monitor_runner
    from repro.starnet import STARNet
    rng = _rng(3)
    mon = STARNet(6, score_method="recon", rng=_rng(4))
    mon.fit(rng.normal(size=(60, 6)) * 0.5, epochs=15)
    percepts = [Percept(features=rng.normal(size=6)) for _ in range(5)]
    runner = monitor_runner(mon)
    eager = runner(percepts)
    before = compile_stats().snapshot()
    with compile_mode():
        compiled = runner(percepts)
    assert compile_stats().delta(before)["runs"] > 0
    np.testing.assert_allclose(compiled, eager, rtol=0, atol=1e-9)
