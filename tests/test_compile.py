"""Tests for :mod:`repro.compile` — tracing, fusion, the buffer arena,
true-int8 execution, mode routing, and the serve/fleet integration."""

import warnings

import numpy as np
import pytest

import repro.nn.layers as nn_layers
from repro.compile import (
    BufferArena,
    CompiledModule,
    CompileError,
    CompileFallbackWarning,
    FreshAllocator,
    Int8Dense,
    TraceError,
    active_mode,
    build_program,
    compile_mode,
    compile_module,
    compile_stats,
    supported_layers,
    trace,
)
from repro.compile.executor import COMPILE_ENV
from repro.kernels import BACKENDS, kernel_backend
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    ConvTranspose2d,
    Dense,
    Dropout,
    Flatten,
    GRUCell,
    Identity,
    LayerNorm,
    LeakyReLU,
    MaxPool2d,
    Module,
    ReLU,
    Sigmoid,
    Softplus,
    Tanh,
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
    "LeakyReLU": (lambda: LeakyReLU(0.1), (3, 5)),
    "Tanh": (Tanh, (3, 5)),
    "Sigmoid": (Sigmoid, (3, 5)),
    "Softplus": (Softplus, (3, 5)),
    "Identity": (Identity, (3, 5)),
    "Dropout": (lambda: Dropout(0.4, rng=_rng(2)), (3, 5)),
    "LayerNorm": (lambda: LayerNorm(5), (3, 5)),
    "BatchNorm": (lambda: BatchNorm(5), (3, 5)),
    "Flatten": (Flatten, (3, 2, 4)),
    "Conv2d": (lambda: Conv2d(2, 3, rng=_rng(3)), (2, 2, 6, 6)),
    "ConvTranspose2d": (lambda: ConvTranspose2d(2, 3, rng=_rng(4)),
                        (2, 2, 5, 5)),
    "MaxPool2d": (MaxPool2d, (2, 2, 6, 6)),
    "AvgPool2d": (AvgPool2d, (2, 2, 6, 6)),
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
    graph = trace(model, example=x)
    assert graph.output == len(graph.nodes) - 1
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
def _mixed_model():
    m = Sequential(
        Dense(10, 16, rng=_rng(1), name="p.fc0"), LeakyReLU(0.05),
        LayerNorm(16), Dense(16, 12, rng=_rng(2), name="p.fc1"), Tanh(),
        BatchNorm(12), Dense(12, 4, rng=_rng(3), name="p.fc2"), Sigmoid())
    m.eval()
    return m


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_matches_eager_under_both_kernel_backends(backend):
    model = _mixed_model()
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
    prog = build_program(trace(model), fuse=True)
    assert len(prog.stages) == 2
    assert prog.fused_elementwise == 3  # bias, relu, bias
    unfused = build_program(trace(model), fuse=False)
    assert len(unfused.stages) == 5  # one per non-input node
    assert unfused.fused_elementwise == 0


def test_unfused_program_matches_fused():
    model = _mixed_model()
    x = _rng(11).standard_normal((4, 10))
    fused = CompiledModule(model, fuse=True)
    unfused = CompiledModule(model, fuse=False)
    np.testing.assert_allclose(unfused.forward_batch(x),
                               fused.forward_batch(x), rtol=0, atol=0)


# ------------------------------------------------------------------ arena
def test_arena_zero_steady_state_allocations():
    model = _mixed_model()
    art = CompiledModule(model, copy_output=False)
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
    art = CompiledModule(model, copy_output=False)
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
    art = CompiledModule(model, copy_output=True)
    a = art.forward_batch(np.ones((2, 4)))
    kept = np.copy(a)
    art.forward_batch(np.full((2, 4), 3.0))  # would overwrite an arena view
    np.testing.assert_array_equal(a, kept)


def test_fresh_allocator_reports_no_footprint():
    alloc = FreshAllocator()
    y = alloc.out("k", (3, 4), np.float64)
    assert y.shape == (3, 4)
    assert alloc.nbytes() == 0 and alloc.slot_count() == 0


# ------------------------------------------------------------------- int8
def test_int8_weights_stored_as_int8():
    dense = Dense(16, 8, rng=_rng(0))
    packed = Int8Dense(dense)
    assert packed.weight_q.dtype == np.int8
    rep = packed.report()
    assert rep["weight_bytes"] * 8 == rep["float_bytes"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_int8_drift_within_analytic_bound(seed):
    dense = Dense(24, 10, rng=_rng(seed))
    packed = Int8Dense(dense)
    x = _rng(seed + 100).standard_normal((7, 24)) * (seed + 1)
    got = packed.run(x, BufferArena(), "t")
    ref = x @ dense.weight.data
    assert float(np.max(np.abs(got - ref))) <= packed.drift_bound(x)


def test_int8_zero_weight_column_exact():
    dense = Dense(6, 3, rng=_rng(0))
    dense.weight.data[:, 1] = 0.0
    packed = Int8Dense(dense)
    x = _rng(1).standard_normal((4, 6))
    got = packed.run(x, BufferArena(), "t")
    np.testing.assert_array_equal(got[:, 1], 0.0)


def test_int8_overflow_guard():
    dense = Dense(4, 2, rng=_rng(0))
    dense.weight.data = np.zeros((70_000, 2))  # beyond the int32-safe width
    with pytest.raises(ValueError, match="overflow"):
        Int8Dense(dense)


def test_int8_compiled_model_within_tolerance_and_counted():
    model = mlp([12, 24, 6], rng=_rng(5))
    model.eval()
    x = _rng(6).standard_normal((8, 12))
    before = compile_stats().snapshot()
    art = CompiledModule(model, precision="int8")
    got = art.forward_batch(x)
    delta = compile_stats().delta(before)
    assert delta["int8_gemms"] == 2
    eager = model._eager_forward_batch(x)
    assert float(np.max(np.abs(got - eager))) < 0.1
    assert not np.array_equal(got, eager)  # genuinely quantized, not float


def test_int8_weight_rebind_triggers_repack():
    model = mlp([5, 4], rng=_rng(0))
    model.eval()
    art = CompiledModule(model, precision="int8")
    x = _rng(1).standard_normal((3, 5))
    art.forward_batch(x)
    model.layers[0].weight.data = np.zeros((5, 4))  # rebound array
    np.testing.assert_allclose(art.forward_batch(x),
                               np.zeros((3, 4)), atol=1e-12)


def test_int8_inplace_mutation_needs_recompile():
    model = mlp([5, 4], rng=_rng(0))
    model.eval()
    art = CompiledModule(model, precision="int8")
    x = _rng(1).standard_normal((3, 5))
    stale = np.copy(art.forward_batch(x))
    model.layers[0].weight.data[...] *= 2.0  # in-place: witness unchanged
    np.testing.assert_array_equal(art.forward_batch(x), stale)
    art.recompile()
    fresh = art.forward_batch(x)
    assert float(np.max(np.abs(fresh - 2.0 * stale))) < 0.1


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
    assert active_mode() == "eager"
    with compile_mode("compiled"):
        assert active_mode() == "compiled"
        with compile_mode("eager"):
            assert active_mode() == "eager"
        assert active_mode() == "compiled"
    assert active_mode() == "eager"
    with pytest.raises(CompileError):
        with compile_mode("jit"):
            pass


def test_env_selects_compiled(monkeypatch):
    model = mlp([4, 3], rng=_rng(0))
    model.eval()
    x = _rng(1).standard_normal((2, 4))
    eager = model.forward_batch(x)
    monkeypatch.setenv(COMPILE_ENV, "compiled")
    before = compile_stats().snapshot()
    np.testing.assert_allclose(model.forward_batch(x), eager,
                               rtol=0, atol=1e-12)
    assert compile_stats().delta(before)["runs"] == 1


def test_invalid_env_mode_raises(monkeypatch):
    monkeypatch.setenv(COMPILE_ENV, "turbo")
    with pytest.raises(CompileError, match="turbo"):
        active_mode()
    # Routing stays eager for anything that is not exactly "compiled".
    model = mlp([4, 3], rng=_rng(0))
    before = compile_stats().snapshot()
    model.forward_batch(np.zeros((1, 4)))
    assert compile_stats().delta(before)["runs"] == 0


def test_routing_caches_one_artifact_per_sequential():
    model = mlp([4, 3], rng=_rng(0))
    model.eval()
    x = np.zeros((2, 4))
    before = compile_stats().snapshot()
    with compile_mode("compiled"):
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
    with compile_mode("compiled"):
        model.forward(x)
    with pytest.raises(CompileError, match="backward after a compiled"):
        model.backward(np.ones((2, 3)))
    model.forward(x)  # an eager forward re-arms training
    model.backward(np.ones((2, 3)))


def test_training_mode_dropout_bypasses_forward_only():
    model = Sequential(Dense(4, 4, rng=_rng(0)), Dropout(0.5, rng=_rng(1)))
    x = _rng(2).standard_normal((3, 4))
    before = compile_stats().snapshot()
    with compile_mode("compiled"):
        model.forward(x)          # training dropout: stateful, bypasses
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
    with compile_mode("compiled"):
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


# ------------------------------------------------------------ serve/fleet
def test_compiled_monitor_runner_rejects_exact_scorer():
    from repro.serve import compiled_monitor_runner
    from repro.starnet import STARNet
    mon = STARNet(6, score_method="exact", rng=_rng(0))
    with pytest.raises(CompileError, match="exact"):
        compiled_monitor_runner(mon)


def test_fleet_factory_rejects_compiled_exact():
    from repro.fleet import MonitorRunnerFactory
    with pytest.raises(ValueError, match="exact"):
        MonitorRunnerFactory(compiled=True)  # default scorer is exact
    MonitorRunnerFactory(compiled=True, score_method="recon")  # fine


def test_compiled_monitor_runner_matches_eager():
    from repro.core.components import Percept
    from repro.serve import compiled_monitor_runner, monitor_runner
    from repro.starnet import STARNet
    rng = _rng(3)
    mon = STARNet(6, score_method="recon", rng=_rng(4))
    mon.fit(rng.normal(size=(60, 6)) * 0.5, epochs=15)
    percepts = [Percept(features=rng.normal(size=6)) for _ in range(5)]
    eager = monitor_runner(mon)(percepts)
    compiled = compiled_monitor_runner(mon)(percepts)
    np.testing.assert_allclose(compiled, eager, rtol=0, atol=1e-9)
