"""The metrics ``BENCHMARK.json`` names, and what each layer should move.

Names, units and bounds live in ``BENCHMARK.json`` alone.  Each workload
prints every end-to-end metric (untraced runs) or every per-layer metric
(traced runs); a layer a workload does not exercise reads 0.

``SHOULD_MOVE`` records, before any optimisation is measured, which
end-to-end metric on which workload a change to each layer should move.
"""

from __future__ import annotations

import json
import os
from typing import Dict

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics.  An
    op is a loop cycle (closed_loop), a logged scan (log_replay) or a
    sweep plan's scenario (scenario_sweep)."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


CL, LR, SW = "closed_loop", "log_replay", "scenario_sweep"

SHOULD_MOVE: Dict[str, str] = {
    "sim.scan_ms": f"latency on {CL}; not {LR}",
    "sim.scan_share": f"latency on {CL}",
    "sim.beams_fired": f"latency, energy on {CL}; throughput on {SW}",
    "sim.self_ms": f"latency on {CL}",
    "kernels.corruption_stack.apply_ms": f"throughput on {SW}",
    "kernels.corruption_stack.apply_calls": f"throughput on {SW}",
    "voxel.voxelize_ms": f"latency, staleness on {CL}; throughput on {LR}",
    "voxel.points": f"voxelize time on {CL}, {LR}",
    "voxel.mask_ms": f"latency on {CL}",
    "voxel.self_ms": f"staleness on {CL}; throughput on {LR}",
    "rmae.recon_ms": f"staleness on {CL}; throughput on {LR}",
    "rmae.active_voxels": f"recon time on {CL}, {LR}",
    "rmae.mac_rate": f"staleness on {CL}; throughput on {LR}",
    "rmae.self_ms": f"staleness on {CL}; throughput on {LR}",
    "detect.ms": f"staleness on {CL}; throughput on {LR}",
    "detect.detections": "detect.map must hold",
    "detect.map": f"must hold on {CL}, {LR}",
    "detect.self_ms": f"staleness on {CL}; throughput on {LR}",
    "starnet.extract_ms": f"staleness on {CL}; throughput on {LR}",
    "starnet.assess_ms": f"staleness on {CL} (SPSA); throughput on {LR} "
                         "(exact, batched)",
    "starnet.regret_rows": f"rows per regret kernel call; throughput on {LR}",
    "starnet.rejected_share": f"energy, latency on {CL} (full rescans)",
    "starnet.monitor_auc": f"must hold on {CL}, {LR}",
    "starnet.self_ms": f"staleness on {CL}; throughput on {LR}",
    "kernels.sparse_conv3d.forward_ms": f"staleness on {CL}; "
                                        f"throughput on {LR}",
    "kernels.sparse_conv3d.forward_calls": f"throughput on {LR}",
    "kernels.likelihood_regret.score_rows_ms": f"staleness on {CL}; "
                                               f"throughput on {LR}",
    "kernels.likelihood_regret.score_rows_calls": f"throughput on {LR}",
    "kernels.bev_scatter.scatter_ms": f"staleness on {CL}; "
                                      f"throughput on {LR}",
    "kernels.bev_scatter.scatter_calls": f"throughput on {LR}",
    "nn.macs_per_scan": f"energy on {CL}, {LR} (architecture changes only)",
    "policy.act_ms": f"staleness on {CL} (too small to show)",
    "policy.self_ms": f"staleness on {CL}",
    "loop.self_ms": f"latency, energy on {CL}",
    "loop.coverage_mean": f"energy, latency on {CL}",
    "energy.sensing_mj": f"energy on {CL}",
    "energy.compute_mj": f"energy on {CL}, {LR}",
    "energy.actuation_mj": f"energy on {CL}",
    "serve.batch_size_mean": f"throughput on {LR}",
    "serve.queue_wait_ms": f"latency on {LR}",
    "serve.batches": f"throughput on {LR}",
    "serve.shed": f"failed requests on {LR}",
    "serve.self_ms": f"latency on {LR}",
    "scenario.exec_ms": f"throughput on {SW}",
    "scenario.replayed_share": f"throughput on {SW}",
    "scenario.store_lookup_ms": f"throughput on {SW}",
    "scenario.store_insert_ms": f"throughput on {SW}",
    "scenario.store_bytes": f"throughput on {SW}",
    "scenario.self_ms": f"latency on {SW}",
    "pool.map_ms": f"throughput on {SW}",
    "pool.tasks": f"throughput on {SW}",
    "cache.misses": "setup_s on every workload",
    "obs.trace_overhead_share": "nothing untraced; tracing cost per workload",
}

# Layers named by a span's first component; self times sum per layer.
SELF_TIME_LAYERS = ("sim", "voxel", "rmae", "detect", "starnet", "policy",
                    "loop", "serve", "scenario")


def end_to_end(values: Dict[str, float]) -> Dict[str, dict]:
    named = units("end_to_end")
    missing = set(named) - set(values)
    if missing:
        raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in named.items()}


def per_layer(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric; layers a workload never called read 0."""
    named = units("per_layer")
    unknown = set(values) - set(named)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in named.items()}


def kernel_metrics(histograms: Dict[str, dict], ops: int
                   ) -> Dict[str, float]:
    """Mean ms per call, and calls per op, from the ``kernels.*``
    histograms."""
    out = {}
    for kernel, op in (("corruption_stack", "apply"),
                       ("sparse_conv3d", "forward"),
                       ("likelihood_regret", "score_rows"),
                       ("bev_scatter", "scatter")):
        h = histograms.get(f"kernels.{kernel}.{op}_s", {})
        out[f"kernels.{kernel}.{op}_ms"] = 1e3 * float(h.get("mean", 0.0))
        out[f"kernels.{kernel}.{op}_calls"] = float(h.get("count", 0)) / ops
    return out
