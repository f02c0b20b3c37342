#!/usr/bin/env python3
"""End-to-end sensing-to-action benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload closed_loop --seed 0 --seconds 20 --trace 0

Workloads: ``closed_loop``, ``log_replay``, ``scenario_sweep`` (see
``e2ebench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with tracing off, every time divided by the host's slowdown measured
around it (``common.HostProbe``; the details line keeps the wall-clock
figures); ``--trace 1`` runs the same work untraced and traced,
alternating steps, and reports the per-layer metrics, writing the span
trees and the ``repro.obs`` registry to ``.bench_out/``.  ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host
fingerprint and run details.  Exit code 0 when every output check held,
1 when one failed, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from e2ebench import common, metrics  # noqa: E402  (numpy not loaded yet)

WORKLOADS = ("closed_loop", "log_replay", "scenario_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   default=metrics.spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"error: package sources not found under {common.SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    scratch = common.isolate_process(os.path.join(common.ROOT, ".bench_tmp"))
    sys.path.insert(0, common.SRC)
    try:
        module = importlib.import_module(f"e2ebench.{args.workload}")
        result = common.run_workload(module, args.seed, args.seconds,
                                     bool(args.trace), scratch)
        fingerprint = common.fingerprint(args.seed)
    finally:
        common.cleanup(scratch)
    if result["registry"] is not None:
        write_trace(args, result["registry"])
    common.emit({"fingerprint": fingerprint, "workload": args.workload,
                 "trace": args.trace, "details": result["details"]})
    common.emit({key: result[key]
                 for key in ("correct", "attempted", "failed", "metrics")})
    return 0 if result["correct"] else 1


def write_trace(args, registry) -> None:
    """The span trees and instruments, written once the run has ended."""
    out = os.path.join(common.ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    from repro.obs import registry_payload
    path = os.path.join(out, f"{args.workload}-seed{args.seed}-trace.json")
    with open(path, "w") as f:
        json.dump(registry_payload(registry), f, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
