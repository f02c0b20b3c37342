"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one entry point for the common flows without
writing any code:

* ``demo <name>``       — run one of the example scenarios inline;
* ``profile <target>``  — run a scenario or a bench under a live metrics
  registry and emit the span tree + metrics (JSON via ``--out``, JSONL
  via ``--jsonl``, text summary to stdout); ``profile demo`` runs the
  built-in five-stage loop scenario;
* ``bench NAME...``     — regenerate paper artifacts: each table,
  figure and claim of the paper has exactly one protocol, its bench
  (``table2_lidar_energy``, ``fig5b_disturbance``, ``starnet_auc``,
  ...).  Runs benches by name (or the ``default`` tag, the fast
  shape-level subset, which is also what no name selects) under a
  :class:`repro.runtime.WorkerPool` and checks every gated bench's
  claims against its committed baseline — the same claim lines
  ``benchmarks/check_regressions.py`` prints.  ``--smoke`` runs each
  gated bench's seconds-scale CI config, ``--workers N`` fans the
  benches out over processes with results bit-identical to serial,
  ``--out`` keeps the aggregated JSON (without it, stdout holds only
  the results JSON and the claim lines go to stderr).  Exit codes:
  0 = no blocking claim failed (warnings allowed), 1 = a blocking claim
  failed, 2 = unknown name or unwritable ``--out``;
* ``cache``             — inspect (``info``) or empty (``clear``) the
  on-disk stores under ``$REPRO_CACHE_DIR``: the artifact cache that
  memoizes generated datasets and pretrained R-MAE/VAE/Koopman weights,
  the scenario replay packs, and the federated jobs;
* ``verify``            — golden-trace differential verification: replay
  the seven golden scenarios (five paper pillars plus the
  ``control_adaptation`` decision-trace episode and the
  ``scenario_sweep`` engine trace) serially, pooled, cached, quantized
  and under both kernel backends, diffing each against the committed
  goldens under ``tests/goldens/`` (``--update-goldens`` re-records
  them).  Exit codes: 0 = all checks pass, 1 = mismatches, 2 = bad
  usage — the same contract the README documents, so CI can gate on
  it;
* ``list``              — enumerate available demos and benches.

Every failure path (unknown demo/bench/profile target, a demo whose
``main`` reports failure) exits non-zero so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]

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
    from repro.runtime.bench import BENCHES, run_bench

    if (target != PROFILE_BUILTIN and target not in DEMOS
            and target not in BENCHES):
        choices = ", ".join([PROFILE_BUILTIN, *DEMOS, *sorted(BENCHES)])
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
            run_bench(target)
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
    from repro.runtime import ArtifactCache, cache_enabled
    from repro.runtime.store import JobStore, ReplayStore

    cache, packs, jobs = ArtifactCache(), ReplayStore(), JobStore()
    if action == "clear":
        print(f"removed {cache.clear()} cached artifact(s), "
              f"{packs.clear()} replay pack(s) and {jobs.clear()} job(s) "
              f"from {cache.root}")
        return 0
    info = cache.info()
    info["enabled"] = cache_enabled()
    info["scenarios"] = packs.info()
    info["jobs"] = jobs.info()
    if as_json:
        json.dump(info, sys.stdout, indent=2)
        print()
        return 0
    print(f"stores at {info['root']} (artifact cache "
          f"{'enabled' if info['enabled'] else 'DISABLED via REPRO_CACHE'})")
    print(f"  artifacts: {info['entries']} entries, "
          f"{info['total_bytes'] / 1e6:.2f} MB")
    for kind, count in sorted(info["by_kind"].items()):
        print(f"    {kind:20s} {count} artifact(s)")
    scenarios, job_info = info["scenarios"], info["jobs"]
    print(f"  replay packs: {scenarios['packs']} packs, "
          f"{scenarios['entries']} results, "
          f"{scenarios['total_bytes'] / 1e6:.2f} MB")
    print(f"  jobs: {job_info['entries']} jobs, "
          f"{job_info['total_bytes'] / 1e6:.2f} MB")
    for status, count in sorted(job_info["by_status"].items()):
        print(f"    {status:20s} {count} job(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sensing-to-action loops for edge autonomy "
                    "(DATE 2025 reproduction)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list demos and benches")
    demo = sub.add_parser("demo", help="run an example scenario")
    demo.add_argument("name", choices=DEMOS)
    prof = sub.add_parser(
        "profile",
        help="run a scenario under live telemetry and emit span tree "
             "+ metrics ('demo' = built-in five-stage loop)")
    prof.add_argument("target",
                      help="'demo', an example name, or a bench name")
    prof.add_argument("--out", default="",
                      help="write span tree + metrics JSON here")
    prof.add_argument("--jsonl", default="",
                      help="write one-record-per-line JSONL export here")
    prof.add_argument("--cycles", type=int, default=120,
                      help="loop cycles for the built-in 'demo' target")
    bench = sub.add_parser(
        "bench",
        help="regenerate paper artifacts: run benches (optionally in "
             "parallel), aggregate their JSON and check the gated benches' "
             "claims; exits 1 if a blocking claim fails")
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
        help="inspect or clear the on-disk stores: artifacts, replay "
             "packs and jobs ($REPRO_CACHE_DIR, default ~/.cache/repro)")
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
                             "(serial,pooled,cache,quantized,kernels)")

    args = parser.parse_args(argv)
    if args.command == "list":
        from repro.runtime import BENCHES, DEFAULT_BENCHES
        print("demos:      ", ", ".join(DEMOS))
        print("benches:    ", ", ".join(sorted(BENCHES)))
        print("bench tags:  default =", ", ".join(DEFAULT_BENCHES))
        print("profile:     demo (built-in loop), any demo name, or any "
              "bench name")
        print("(each bench regenerates one paper artifact: 'repro bench "
              "NAME'; 'pytest benchmarks/ --benchmark-only -s' also prints "
              "their tables)")
        return 0
    if args.command == "demo":
        return _run_demo(args.name)
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
