"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one entry point for the common flows without
writing any code:

* ``demo <name>``       — run one of the example scenarios inline;
* ``experiment <id>``   — regenerate one paper artifact (table2, fig5a,
  fig5b, auc, fig11, swarm, speculative, codesign); the full table and
  figure suite, including the heavier Table I / Fig. 7 / Fig. 9 runs,
  lives in ``benchmarks/``;
* ``profile <target>``  — run a scenario under a live metrics registry
  and emit the span tree + metrics (JSON via ``--out``, JSONL via
  ``--jsonl``, text summary to stdout); ``profile demo`` runs the
  built-in five-stage loop scenario;
* ``bench NAME...``     — run benches by name (or the ``default`` tag,
  the fast shape-level subset, which is also what no name selects)
  under a :class:`repro.runtime.WorkerPool` and check every gated
  bench's claims against its committed baseline — the same claim lines
  ``benchmarks/check_regressions.py`` prints.  ``--smoke`` runs each
  gated bench's seconds-scale CI config, ``--workers N`` fans the
  benches out over processes with results bit-identical to serial,
  ``--out`` keeps the aggregated JSON (without it, stdout holds only
  the results JSON and the claim lines go to stderr).  Exit codes:
  0 = no blocking claim failed (warnings allowed), 1 = a blocking claim
  failed, 2 = unknown name or unwritable ``--out``;
* ``cache``             — inspect (``info``) or empty (``clear``) the
  content-addressed artifact cache that memoizes generated datasets and
  pretrained R-MAE/VAE/Koopman weights;
* ``verify``            — golden-trace differential verification: replay
  the seven golden scenarios (five paper pillars plus the
  ``control_adaptation`` decision-trace episode and the
  ``scenario_sweep`` engine trace) serially, pooled,
  cached, quantized, under both kernel backends, and compiled
  (``repro.compile`` artifacts vs
  the eager float runs), diffing each against the committed goldens
  under ``tests/goldens/``
  (``--update-goldens`` re-records them).  Exit codes: 0 = all checks
  pass, 1 = mismatches, 2 = bad usage — the same contract the README
  documents, so CI can gate on it;
* ``list``              — enumerate available demos and experiments.

Every failure path (unknown demo/experiment/profile target, a demo
whose ``main`` reports failure) exits non-zero so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict

import numpy as np

__all__ = ["main", "EXPERIMENTS"]


# --------------------------------------------------------------- commands
def _table2() -> dict:
    from repro.generative import compare_energy, energy_ratio
    from repro.sim import LidarConfig, LidarScanner, sample_scene
    from repro.voxel import (
        RadialMaskConfig,
        VoxelGridConfig,
        beam_mask_from_segments,
        radial_mask,
        voxelize,
    )
    lidar = LidarConfig(n_azimuth=72, n_elevation=20)
    grid = VoxelGridConfig(nx=24, ny=24, nz=2)
    rng = np.random.default_rng(0)
    scanner = LidarScanner(lidar, rng=rng)
    scene = sample_scene(rng)
    full = scanner.scan(scene)
    cloud = voxelize(full.points, full.labels, grid)
    cfg = RadialMaskConfig(n_segments=24, segment_keep_fraction=0.25,
                           reference_range_m=10.0)
    _, segments = radial_mask(cloud, cfg, np.random.default_rng(1))
    expected = np.full(lidar.n_beams, lidar.max_range_m)
    expected[full.beam_ids] = full.ranges
    mask = beam_mask_from_segments(segments, lidar, cfg, expected,
                                   np.random.default_rng(2))
    masked = scanner.scan(scene, mask)
    reports = compare_energy(full, masked, 830_000, 335_000_000)
    return {
        "conventional": reports["conventional"].as_row(),
        "rmae": reports["rmae"].as_row(),
        "energy_ratio": round(energy_ratio(reports), 2),
    }


def _fig5a() -> dict:
    from repro.koopman import fig5a_macs
    return fig5a_macs(16, 1)


def _fig5b() -> dict:
    from repro.koopman import (
        build_model,
        collect_transitions,
        evaluate_controller,
        fit_dynamics_model,
        make_controller,
    )
    transitions = collect_transitions(n_episodes=12,
                                      rng=np.random.default_rng(0))
    out = {}
    for name, epochs in (("dense_koopman", 1), ("spectral_koopman", 90),
                         ("mlp", 25)):
        model = build_model(name, 4, 1, rng=np.random.default_rng(1))
        fit_dynamics_model(model, transitions, epochs=epochs,
                           rng=np.random.default_rng(2))
        controller = make_controller(model, np.random.default_rng(3))
        out[name] = {
            f"p={p}": round(evaluate_controller(
                controller, p, n_episodes=4, steps=150, seed=4,
                a_min=5.0, a_max=20.0), 1)
            for p in (0.0, 0.1, 0.25)
        }
    return out


def _auc() -> dict:
    from repro.starnet import AUCExperimentConfig, run_auc_experiment
    cfg = AUCExperimentConfig(n_fit_scans=24, n_test_scans=12,
                              severity=0.45, spsa_steps=25, vae_epochs=35)
    return {k: round(v, 4) for k, v in run_auc_experiment(cfg).items()}


def _swarm() -> dict:
    from repro.multiagent import compare_swarm_strategies
    res = compare_swarm_strategies(steps=40, seed=0)
    return {
        name: {"detection_rate": round(r.detection_rate, 3),
               "energy_mj": round(r.total_energy_mj, 1),
               "redundancy": round(r.mean_redundancy, 2)}
        for name, r in res.items()
    }


def _speculative() -> dict:
    from repro.federated import NGramLM, speculative_decode
    rng = np.random.default_rng(0)
    tokens = [0]
    for _ in range(5000):
        tokens.append((tokens[-1] + 1) % 12 if rng.random() < 0.8
                      else int(rng.integers(12)))
    target = NGramLM(12, order=3).fit(tokens)
    draft = NGramLM(12, order=1).fit(tokens)
    out = {}
    for k in (1, 2, 4, 8):
        stats = speculative_decode(target, draft, tokens[:3], 200, k=k,
                                   rng=np.random.default_rng(k))
        out[f"k={k}"] = {"acceptance": round(stats.acceptance_rate, 3),
                         "speedup": round(
                             stats.speedup_vs_autoregressive(), 2)}
    return out


def _fig11() -> dict:
    from repro.federated import MODES, FLClient, FLServer, make_fleet
    from repro.sim import make_synthetic_cifar, shard_dirichlet
    ds = make_synthetic_cifar(n_per_class=40, seed=0)
    train, test = ds.split(0.25, np.random.default_rng(1))
    shards = shard_dirichlet(train, 6, alpha=0.7,
                             rng=np.random.default_rng(2))
    fleet = make_fleet(6, rng=np.random.default_rng(3))
    out = {}
    for mode in MODES:
        clients = [FLClient(i, s, p, rng=np.random.default_rng(10 + i))
                   for i, (s, p) in enumerate(zip(shards, fleet))]
        server = FLServer(clients, test, hidden=32, mode=mode,
                          rng=np.random.default_rng(4))
        server.run(8)
        out[mode] = {k: round(v, 5) for k, v in server.totals().items()}
    return out


def _codesign() -> dict:
    from repro.core import LoopPlant, end_to_end_codesign, modular_codesign
    plant = LoopPlant()
    out = {}
    for budget in (2000, 4000, 8000, 15000, 30000):
        e2e, ue = end_to_end_codesign(plant, budget)
        _, um = modular_codesign(plant, budget)
        out[f"{budget}mW"] = {
            "e2e_utility": round(ue, 3),
            "modular_utility": round(um, 3),
            "e2e_design": str(e2e),
        }
    return out


EXPERIMENTS: Dict[str, Callable[[], dict]] = {
    "table2": _table2,
    "codesign": _codesign,
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "auc": _auc,
    "fig11": _fig11,
    "swarm": _swarm,
    "speculative": _speculative,
}

DEMOS = ("quickstart", "generative_lidar_perception",
         "koopman_cartpole_control", "robust_monitored_autonomy",
         "neuromorphic_optical_flow", "federated_edge_fleet",
         "uncertainty_aware_sensing")


def _run_demo(name: str) -> int:
    if name not in DEMOS:
        print(f"unknown demo {name!r}; choose from {', '.join(DEMOS)}",
              file=sys.stderr)
        return 2
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "examples",
        f"{name}.py")
    if not os.path.exists(path):
        print(f"example script not found at {path}", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Propagate the demo's own exit status instead of swallowing it:
    # a demo main() returning a nonzero code must fail the CLI (CI
    # gates on this).
    rc = module.main()
    return int(rc) if rc else 0


PROFILE_BUILTIN = "demo"


def _run_profile(target: str, out: str, jsonl: str, cycles: int) -> int:
    from repro import obs

    if (target != PROFILE_BUILTIN and target not in DEMOS
            and target not in EXPERIMENTS):
        choices = ", ".join([PROFILE_BUILTIN, *DEMOS, *sorted(EXPERIMENTS)])
        print(f"unknown profile target {target!r}; choose from {choices}",
              file=sys.stderr)
        return 2

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        if target == PROFILE_BUILTIN:
            obs.run_profile_scenario(cycles=cycles)
            rc = 0
        elif target in DEMOS:
            rc = _run_demo(target)
        else:
            EXPERIMENTS[target]()
            rc = 0
    if rc != 0:
        return rc

    payload = obs.registry_payload(registry)
    payload["target"] = target
    try:
        if out:
            with open(out, "w") as f:
                json.dump(payload, f, indent=2, default=str)
            print(f"wrote profile to {out}", file=sys.stderr)
        if jsonl:
            n = obs.export_jsonl(registry, jsonl)
            print(f"wrote {n} JSONL records to {jsonl}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot write profile artifact: {exc}", file=sys.stderr)
        return 2
    print(obs.render_report(registry, title=f"repro profile {target}"))
    if not out and not jsonl:
        print("\n(pass --out trace.json or --jsonl trace.jsonl to keep "
              "the machine-readable artifact)", file=sys.stderr)
    return 0


def _run_bench(names, smoke: bool, workers, out: str) -> int:
    from repro import obs
    from repro.runtime.bench import GATED, check, print_claims, run_suite

    registry = obs.MetricsRegistry()
    try:
        with obs.use_registry(registry):
            payload = run_suite(names, workers=workers, smoke=smoke)
    except KeyError as exc:
        print(str(exc.args[0]) if exc.args else repr(exc), file=sys.stderr)
        return 2
    payload["meta"]["obs"] = registry.snapshot()["counters"]
    if out:
        try:
            with open(out, "w") as f:
                json.dump(payload, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write bench artifact: {exc}", file=sys.stderr)
            return 2
        print(f"wrote aggregated results to {out}", file=sys.stderr)
    else:
        print(json.dumps(payload["results"], indent=2, default=str))
    failed = []
    for name, result in payload["results"].items():
        if name in GATED:
            claims = check(name, result)
            # Without --out, stdout holds only the results JSON.
            print_claims(name, claims,
                         file=sys.stdout if out else sys.stderr)
            failed += [f"{name}: {c.name}" for c in claims if c.failed]
    meta = payload["meta"]
    print(f"\n{len(payload['results'])} benches in {meta['wall_s']:.1f}s "
          f"with {meta['workers']} worker(s):", file=sys.stderr)
    for name, wall in sorted(meta["bench_wall_s"].items(),
                             key=lambda kv: -kv[1]):
        print(f"  {name:28s} {wall:7.2f}s", file=sys.stderr)
    if failed:
        print(f"blocking claims failed: {', '.join(failed)}",
              file=sys.stderr)
    return 1 if failed else 0


def _run_cache(action: str, as_json: bool) -> int:
    from repro.runtime import cache_enabled, get_cache

    cache = get_cache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
        return 0
    info = cache.info()
    info["enabled"] = cache_enabled()
    if as_json:
        json.dump(info, sys.stdout, indent=2)
        print()
        return 0
    print(f"artifact cache at {info['root']} "
          f"({'enabled' if info['enabled'] else 'DISABLED via REPRO_CACHE'})")
    print(f"  {info['entries']} entries, {info['total_bytes'] / 1e6:.2f} MB")
    for kind, count in sorted(info["by_kind"].items()):
        print(f"  {kind:20s} {count} artifact(s)")
    if not info["entries"]:
        print("  (empty — caches fill as examples/benchmarks pretrain "
              "models)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sensing-to-action loops for edge autonomy "
                    "(DATE 2025 reproduction)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list demos and experiments")
    demo = sub.add_parser("demo", help="run an example scenario")
    demo.add_argument("name", choices=DEMOS)
    exp = sub.add_parser("experiment",
                         help="regenerate a paper artifact (JSON to stdout)")
    exp.add_argument("id", choices=sorted(EXPERIMENTS))
    prof = sub.add_parser(
        "profile",
        help="run a scenario under live telemetry and emit span tree "
             "+ metrics ('demo' = built-in five-stage loop)")
    prof.add_argument("target",
                      help="'demo', an example name, or an experiment id")
    prof.add_argument("--out", default="",
                      help="write span tree + metrics JSON here")
    prof.add_argument("--jsonl", default="",
                      help="write one-record-per-line JSONL export here")
    prof.add_argument("--cycles", type=int, default=120,
                      help="loop cycles for the built-in 'demo' target")
    bench = sub.add_parser(
        "bench",
        help="run benches (optionally in parallel), aggregate their JSON "
             "and check the gated benches' claims; exits 1 if a blocking "
             "claim fails")
    bench.add_argument("names", nargs="*",
                       help="bench names or the 'default' tag (default: "
                            "'default'; 'repro list' shows every name)")
    bench.add_argument("--smoke", action="store_true",
                       help="run each gated bench's seconds-scale CI "
                            "config")
    bench.add_argument("--workers", type=int, default=None,
                       help="process count (default: $REPRO_WORKERS or 1); "
                            "results are bit-identical for any value")
    bench.add_argument("--out", default="",
                       help="write aggregated results JSON here")
    cache = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk artifact cache "
             "($REPRO_CACHE_DIR, default ~/.cache/repro)")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable info")
    verify = sub.add_parser(
        "verify",
        help="golden-trace differential verification (serial / pooled / "
             "cached / quantized / kernels) against tests/goldens/")
    verify.add_argument("scenarios", nargs="*",
                        help="scenario names (default: all seven scenarios)")
    verify.add_argument("--update-goldens", action="store_true",
                        help="re-record goldens from fresh serial runs "
                             "before verifying")
    verify.add_argument("--workers", type=int, default=None,
                        help="pool size for the pooled differential "
                             "(default: max(2, $REPRO_WORKERS))")
    verify.add_argument("--goldens-dir", default="",
                        help="golden directory (default: tests/goldens "
                             "or $REPRO_GOLDENS_DIR)")
    verify.add_argument("--diff-out", default="",
                        help="write the full JSON verification report "
                             "(with per-field mismatches) here")
    verify.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout")
    verify.add_argument("--skip", default="",
                        help="comma-separated checks to skip "
                             "(serial,pooled,cache,quantized,kernels,"
                             "compiled)")

    args = parser.parse_args(argv)
    if args.command == "list":
        from repro.runtime import BENCHES, DEFAULT_BENCHES
        print("demos:       ", ", ".join(DEMOS))
        print("experiments: ", ", ".join(sorted(EXPERIMENTS)))
        print("benches:     ", ", ".join(sorted(BENCHES)))
        print("bench tags:   default =", ", ".join(DEFAULT_BENCHES))
        print("profile:      demo (built-in loop), any demo name, or any "
              "experiment id")
        print("(the full table/figure suite lives in benchmarks/: "
              "pytest benchmarks/ --benchmark-only -s; 'repro bench "
              "--workers N' runs the fast subset in parallel)")
        return 0
    if args.command == "demo":
        return _run_demo(args.name)
    if args.command == "experiment":
        if args.id not in EXPERIMENTS:
            print(f"unknown experiment {args.id!r}; choose from "
                  f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
            return 2
        result = EXPERIMENTS[args.id]()
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
        return 0
    if args.command == "profile":
        return _run_profile(args.target, args.out, args.jsonl, args.cycles)
    if args.command == "bench":
        return _run_bench(args.names, args.smoke, args.workers, args.out)
    if args.command == "cache":
        return _run_cache(args.action, args.json)
    if args.command == "verify":
        from repro.testkit import main_verify
        return main_verify(args.scenarios, args.update_goldens,
                           args.workers, args.goldens_dir, args.diff_out,
                           args.json, args.skip)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
