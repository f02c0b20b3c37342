"""Bench registry and the one bench contract.

Every benchmark under ``benchmarks/`` is registered in ``BENCHES`` and
exposes one pure, explicitly seeded entry point:

* ``run(smoke=False) -> payload`` — a plain dict; ``smoke`` selects the
  seconds-scale CI config, and a bench with a single config ignores it.

The *gated* benches (``GATED``) also expose

* ``claims(payload, baseline) -> [Claim]`` — every pass/fail statement
  the bench makes about a payload, given its committed
  ``benchmarks/results/`` baseline.

``repro bench`` and ``benchmarks/check_regressions.py`` both evaluate
claims through :func:`check` and print them with :func:`print_claims`,
and both fail if and only if a blocking claim fails; the pytest
wrappers assert the same claims.  The thresholds live once, in each
bench module, so the CLI, the gate and the wrappers cannot disagree
about what "passing" means.

:func:`run_suite` fans benches out over a :class:`WorkerPool`.  Results
are **bit-identical for any worker count** for the deterministic
benches, because each bench seeds itself explicitly; only the
wall-clock metadata varies.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Iterable, List, Optional, Tuple

from .pool import WorkerPool

__all__ = ["Claim", "BENCHES", "DEFAULT_TAG", "DEFAULT_BENCHES", "GATED",
           "benchmarks_dir", "load_bench", "load_baseline", "select",
           "run_bench", "run_suite", "check", "print_claims"]


@dataclass(frozen=True)
class Claim:
    """One pass/fail statement a bench makes about its payload.

    A failing *blocking* claim fails the CLI and the gate; a failing
    warning (``blocking=False``) is reported only — wall-clock ratios
    and drift against the stored baseline jitter on shared hosts.
    """

    name: str
    ok: bool
    blocking: bool
    detail: str

    @property
    def failed(self) -> bool:
        return self.blocking and not self.ok

    def __str__(self) -> str:
        status = "ok  " if self.ok else "FAIL" if self.blocking else "warn"
        return f"[{status}] {self.name}: {self.detail}"


# name -> module file under benchmarks/.
BENCHES: Dict[str, str] = {
    "fig1_loop_adaptation": "bench_fig1_loop_adaptation",
    "fig2_imc": "bench_fig2_imc",
    "fig5a_model_macs": "bench_fig5a_model_macs",
    "fig5b_disturbance": "bench_fig5b_disturbance",
    "fig11_federated": "bench_fig11_federated",
    "table2_lidar_energy": "bench_table2_lidar_energy",
    "starnet_auc": "bench_starnet_auc",
    "codesign": "bench_codesign",
    "speculative_decoding": "bench_speculative_decoding",
    "multiagent_energy": "bench_claim_multiagent_energy",
    "sensing_fraction": "bench_claim_sensing_fraction",
    "lora_adaptation": "bench_lora_adaptation",
    "ablation_halo_precision": "bench_ablation_halo_precision",
    "ablation_koopman_spectrum": "bench_ablation_koopman_spectrum",
    "ablation_snn_dynamics": "bench_ablation_snn_dynamics",
    "ablation_starnet_scores": "bench_ablation_starnet_scores",
    "table1_detection_ap": "bench_table1_detection_ap",
    "fig7_starnet_recovery": "bench_fig7_starnet_recovery",
    "fig9_optical_flow": "bench_fig9_optical_flow",
    "ablation_masking": "bench_ablation_masking",
    "kernel_hotpaths": "bench_kernel_hotpaths",
    "serving_throughput": "bench_serving_throughput",
    "fleet_scaling": "bench_fleet_scaling",
    "runtime_scaling": "bench_runtime_scaling",
    "control_adaptation": "bench_control_adaptation",
    "federated_async": "bench_federated_async",
    "scenario_sweep": "bench_scenario_sweep",
}

# The fast, CI-friendly subset (seconds each, minutes total serial),
# selected by passing the tag as a name or no name at all.  The timing
# benches stay out of it: their results are wall clock, and several
# spawn pools or replica fleets of their own.
DEFAULT_TAG = "default"
DEFAULT_BENCHES: Tuple[str, ...] = (
    "fig1_loop_adaptation", "fig2_imc", "fig5a_model_macs", "codesign",
    "speculative_decoding", "multiagent_energy", "fig11_federated",
    "starnet_auc",
)

# Gated benches in gate order: name -> (committed baseline under
# benchmarks/results/, whether the gate re-runs the smoke config).
GATED: Dict[str, Tuple[str, bool]] = {
    "fig1_loop_adaptation": ("fig1_loop_adaptation", False),
    "starnet_auc": ("starnet_auc", False),
    "fig5a_model_macs": ("fig5a_model_macs", False),
    "kernel_hotpaths": ("bench_kernel_hotpaths", False),
    "serving_throughput": ("bench_serving_throughput", False),
    "fleet_scaling": ("bench_fleet_scaling", False),
    "control_adaptation": ("bench_control_adaptation", False),
    "federated_async": ("bench_federated_async", False),
    # The full 10^4-scenario sweep takes minutes: the gate re-runs the
    # smoke grid live and reads the scale claim from the committed run.
    "scenario_sweep": ("bench_scenario_sweep", True),
}


def benchmarks_dir() -> str:
    """The repo's ``benchmarks/`` directory (sibling of ``src``)."""
    src_parent = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(src_parent, "benchmarks")


def load_bench(name: str) -> ModuleType:
    """Import a registered bench's module (once per process).

    The module is registered in ``sys.modules`` under its file name —
    the name pytest gives it too — so dataclasses and pickling resolve
    it.
    """
    if name not in BENCHES:
        raise KeyError(f"unknown bench {name!r}; choose from "
                       f"{', '.join(sorted(BENCHES))}")
    module_name = BENCHES[name]
    if module_name in sys.modules:
        return sys.modules[module_name]
    bench_dir = benchmarks_dir()
    path = os.path.join(bench_dir, f"{module_name}.py")
    if not os.path.exists(path):
        raise FileNotFoundError(f"bench module not found: {path}")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)  # benches import bench_utils
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[module_name]
        raise
    return module


def load_baseline(name: str) -> dict:
    """The committed ``benchmarks/results/`` payload of a gated bench."""
    path = os.path.join(benchmarks_dir(), "results", f"{GATED[name][0]}.json")
    with open(path) as f:
        return json.load(f)


def select(names: Optional[Iterable[str]] = None) -> List[str]:
    """Resolve bench names (and the ``default`` tag) in order, once each."""
    selected: List[str] = []
    for name in list(names or ()) or [DEFAULT_TAG]:
        for n in DEFAULT_BENCHES if name == DEFAULT_TAG else (name,):
            if n not in selected:
                selected.append(n)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown benches: {', '.join(unknown)}; choose "
                       f"from {DEFAULT_TAG}, {', '.join(sorted(BENCHES))}")
    return selected


def run_bench(name: str, smoke: bool = False) -> Tuple[str, dict, float]:
    """Execute one registered bench; returns ``(name, result, wall_s)``.

    Module-level and argument-pure so it can cross a process boundary.
    """
    module = load_bench(name)
    t0 = time.perf_counter()
    result = module.run(smoke)
    return name, result, time.perf_counter() - t0


def run_suite(names: Optional[Iterable[str]] = None,
              workers: Optional[int] = None, smoke: bool = False) -> dict:
    """Run benches (default: the ``default`` tag) under a worker pool.

    Returns ``{"results": {...}, "meta": {...}}`` where ``results`` is
    deterministic (identical for any worker count) and ``meta`` carries
    the timing facts of *this* run.
    """
    selected = select(names)
    t0 = time.perf_counter()
    with WorkerPool(workers) as pool:
        outs = pool.starmap(run_bench, [(n, smoke) for n in selected],
                            label="bench")
    wall_s = time.perf_counter() - t0
    return {
        "results": {name: result for name, result, _ in outs},
        "meta": {
            "workers": pool.workers,
            "smoke": smoke,
            "host_cpus": os.cpu_count(),
            "wall_s": round(wall_s, 3),
            "bench_wall_s": {name: round(w, 3) for name, _, w in outs},
        },
    }


def check(name: str, payload: dict) -> List[Claim]:
    """A gated bench's claims about ``payload`` vs its committed baseline."""
    return list(load_bench(name).claims(payload, load_baseline(name)))


def print_claims(name: str, claims: List[Claim], file=None) -> None:
    """The claim report both ``repro bench`` and the gate print."""
    print(f"{name}:", file=file)
    for claim in claims:
        print(f"  {claim}", file=file)
