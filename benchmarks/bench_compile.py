"""Compile-stage benchmark — eager vs traced vs fused vs fused+arena vs int8.

Times the same seeded models through each rung of the ``repro.compile``
ladder, isolating where the speedup comes from:

* ``eager``        — the ``Sequential`` layer loop (one fresh allocation
  per op), the "before" every other stage is measured against;
* ``traced``       — graph capture alone (``fuse=False``, fresh buffers
  per stage): prices the trace without fusion or planning;
* ``fused``        — elementwise chains absorbed into their producing
  GEMM (fresh buffers): prices fusion without the arena;
* ``fused_arena``  — fused program against the pre-planned buffer arena
  with ``copy_output=False``: the steady state, **zero allocations per
  call** (asserted, not assumed);
* ``int8``         — the fused+arena program with every GEMM lowered to
  the true-int8 path (int8 weights, exact int32 accumulation).

Float stages must be *bit-identical* to eager (the fused chains replay
the same ufunc arithmetic in place); the committed JSON is the evidence
for the >=1.5x steady-state claim.  Int8 drift is checked per layer
against :meth:`repro.compile.Int8Dense.drift_bound` — the analytic worst
case, so the check is exact rather than a tuned tolerance — and the
end-to-end output gap is recorded alongside the output scale for
context.

Claims: float equivalence, zero steady-state allocations, int8 drift
inside its bound and the best fused+arena multiple are blocking;
per-model no-slowdown is a warning (host jitter).
"""

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.compile import CompiledModule, FreshAllocator
from repro.compile.fusion import Int8GemmStage
from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.sequential import Sequential, mlp
from repro.runtime.bench import Claim, check

from bench_utils import assert_claims, print_table, save_result

# Median-of-REPS wall times, INNER full forward passes per rep.  The
# workloads run at serving batch sizes (the micro-batching scheduler
# coalesces requests into exactly these shapes), where the eager loop
# is memory-bound: every op allocates a fresh temporary and ReLU's
# ``np.where`` mask adds two more passes — the traffic fusion and the
# arena eliminate.
REPS, INNER = 7, 40
SMOKE_REPS, SMOKE_INNER = 3, 8

# Blocking claim: float compiled stages must match eager to this.
FLOAT_EQUIV_TOL = 1e-9
# Blocking claim: best fused_arena speedup across models.
SPEEDUP_TARGET = 1.5


def _median_wall_s(fn, reps: int, inner: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / inner


# ------------------------------------------------------- workload builders
def _workloads() -> Dict[str, Tuple[Sequential, np.ndarray, str]]:
    """name -> (model, batch input, workload description)."""
    rng = np.random.default_rng(42)
    loads: Dict[str, Tuple[Sequential, np.ndarray, str]] = {}

    m = mlp([64, 128, 128, 10], rng=np.random.default_rng(1), name="m1")
    loads["mlp_64x3"] = (
        m, rng.standard_normal((256, 64)),
        "3-layer MLP 64->128->128->10, batch 256 (coalesced policy "
        "serving)")

    m = mlp([8, 32, 64, 33], rng=np.random.default_rng(2), name="dec")
    loads["monitor_decoder"] = (
        m, rng.standard_normal((512, 8)),
        "STARNet VAE decoder 8->32->64->33, batch 512 (monitor fleet "
        "micro-batch)")

    m = Sequential(
        Conv2d(1, 4, kernel=3, pad=0, rng=np.random.default_rng(3),
               name="head.conv"),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Dense(4 * 5 * 5, 32, rng=np.random.default_rng(4), name="head.fc0"),
        ReLU(),
        Dense(32, 10, rng=np.random.default_rng(5), name="head.fc1"))
    loads["conv_head"] = (
        m, rng.standard_normal((32, 1, 12, 12)),
        "conv(1->4,3x3)+pool head into 100->32->10 MLP, batch 32, 12x12 "
        "input (BEV patch classifier; conv dominates, fusion only "
        "touches the tail)")
    return loads


# ----------------------------------------------------------- int8 drift
def _int8_layer_drift(artifact: CompiledModule,
                      x: np.ndarray) -> List[dict]:
    """Walk the int8 program; for every int8 GEMM stage compare its raw
    GEMM output (before the fused tail) against the float GEMM on the
    *same* input, and against the analytic drift bound for that input.

    The bound is per stage and exact — no composition slack — because
    each stage is probed with the activations the int8 program actually
    feeds it.
    """
    records = []
    probe = FreshAllocator()
    for stage in artifact.program.stages:
        if isinstance(stage, Int8GemmStage):
            packed = stage.ensure_packed()
            ref = x @ stage.dense.weight.data
            got = np.array(packed.run(x, probe, "probe"))
            records.append({
                "layer": stage.dense.weight.name,
                "observed": float(np.max(np.abs(got - ref))),
                "bound": packed.drift_bound(x),
                "weight_bytes": int(packed.weight_q.nbytes),
                "float_bytes": int(packed.in_features
                                   * packed.out_features * 8),
            })
        x = stage.run(x, artifact.arena)
    return records


# --------------------------------------------------------------- the bench
def run(smoke: bool = False) -> dict:
    reps, inner = (SMOKE_REPS, SMOKE_INNER) if smoke else (REPS, INNER)
    models: Dict[str, dict] = {}

    for name, (model, x, workload) in _workloads().items():
        model.eval()
        eager_out = model.forward_batch(x)
        eager_s = _median_wall_s(lambda: model.forward_batch(x), reps, inner)

        artifacts = {
            "traced": CompiledModule(model, fuse=False, arena=False),
            "fused": CompiledModule(model, fuse=True, arena=False),
            "fused_arena": CompiledModule(model, fuse=True, arena=True,
                                          copy_output=False),
            "int8": CompiledModule(model, precision="int8", fuse=True,
                                   arena=True, copy_output=False),
        }

        stages = {"eager": {"wall_s": round(eager_s, 9), "speedup": 1.0}}
        for stage_name, art in artifacts.items():
            out = np.array(art.forward_batch(x))  # warm + materialize
            art.forward_batch(x)                  # arena fully planned
            allocs_before = getattr(art.arena, "allocations", 0)
            wall = _median_wall_s(lambda a=art: a.forward_batch(x),
                                  reps, inner)
            entry = {
                "wall_s": round(wall, 9),
                "speedup": round(eager_s / wall, 2),
                "max_abs_diff": float(np.max(np.abs(out - eager_out))),
            }
            if stage_name in ("fused_arena", "int8"):
                entry["steady_state_allocations"] = int(
                    art.arena.allocations - allocs_before)
                entry["arena_slots"] = art.arena.slot_count()
                entry["arena_bytes"] = art.arena.nbytes()
            stages[stage_name] = entry

        drift = _int8_layer_drift(
            CompiledModule(model, precision="int8", fuse=True, arena=True,
                           copy_output=False), x)
        models[name] = {
            "workload": workload,
            "batch": int(x.shape[0]),
            "fused_elementwise": artifacts["fused"].program.fused_elementwise,
            "stages": stages,
            "int8_layer_drift": drift,
            "int8_output_scale": float(np.max(np.abs(eager_out))),
        }

    return {"reps": reps, "inner": inner, "smoke": smoke,
            "float_equiv_tol": FLOAT_EQUIV_TOL,
            "speedup_target": SPEEDUP_TARGET,
            "models": models}


def _print_stage_table(result: dict) -> None:
    rows = []
    for name, m in result["models"].items():
        for stage, r in m["stages"].items():
            rows.append([
                name, stage, f"{r['wall_s'] * 1e6:.1f}us",
                f"{r['speedup']:.2f}x",
                f"{r.get('max_abs_diff', 0.0):.2e}",
                str(r.get("steady_state_allocations", "-"))])
    print_table(
        "Compile stages — eager vs traced vs fused vs fused+arena vs int8 "
        "(median wall clock per forward)",
        ["Model", "Stage", "Wall", "Speedup", "Max |diff|", "Allocs"],
        rows)


def claims(payload: dict, baseline: dict) -> List[Claim]:
    out = [Claim("same-model-set",
                 set(payload["models"]) == set(baseline["models"]), True,
                 f"models {sorted(payload['models'])}")]
    best = 0.0
    for name in sorted(payload["models"]):
        m = payload["models"][name]
        stages = m["stages"]
        # Capture, fusion and the arena must never change a result.
        worst = max(stages[s]["max_abs_diff"]
                    for s in ("traced", "fused", "fused_arena"))
        out.append(Claim(f"float-equivalent-{name}", worst < FLOAT_EQUIV_TOL,
                         True, f"max |diff| {worst:.2e} "
                         f"(tol {FLOAT_EQUIV_TOL:.0e})"))
        # The arena's zero-allocation contract (deterministic).
        allocs = sum(stages[s]["steady_state_allocations"]
                     for s in ("fused_arena", "int8"))
        out.append(Claim(f"zero-steady-allocs-{name}", allocs == 0, True,
                         f"{allocs} steady-state allocations"))
        # The drift bound is worst-case math, so any violation is an
        # arithmetic bug, not jitter.
        bad = [d["layer"] for d in m["int8_layer_drift"]
               if d["observed"] > d["bound"]]
        out.append(Claim(f"int8-within-bound-{name}", not bad, True,
                         "all layers inside drift bound" if not bad
                         else f"bound exceeded: {bad}"))
        # Per-model wall clock is host-dependent; the blocking claim is
        # the best multiple below.  traced and int8 are excluded by
        # design: traced prices capture alone and int8 trades wall
        # clock on this float substrate for the 8x weight-memory win.
        for s in ("fused", "fused_arena"):
            out.append(Claim(
                f"no-slowdown-{name}-{s}", stages[s]["speedup"] >= 1.0,
                False, f"{stages[s]['speedup']:.2f}x vs baseline "
                f"{baseline['models'][name]['stages'][s]['speedup']:.2f}x"))
        best = max(best, stages["fused_arena"]["speedup"])
    # Fusion + arena planning stays a clear steady-state win somewhere.
    out.append(Claim("fused-arena-wins", best >= SPEEDUP_TARGET, True,
                     f"best fused+arena speedup {best:.2f}x "
                     f"(floor {SPEEDUP_TARGET:.1f}x)"))
    return out


def test_compile_stages(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("compile_stages", result)
    _print_stage_table(result)
    save_result("bench_compile", result)
    assert_claims(verdict)
