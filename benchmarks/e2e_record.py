#!/usr/bin/env python3
"""Append one record to the end-to-end perf trajectory, ``BENCH_e2e.json``.

Each ``python3 e2ebench/run.py`` run prints two JSON lines last: the
details line (host fingerprint, workload, trace flag) and the result
line (``correct``, ``attempted``, ``failed``, ``metrics``).  Save each
untraced run's standard output to a file, then, from the repository
root::

    python benchmarks/e2e_record.py --label "stacked SPSA" runs/*.txt

A record holds the runs' git sha and ``source_sha256`` (a SHA-256 of
``src/repro``), the host fingerprint, and per workload the seeds, the
operation counts and the median, quartiles and run count ``n`` of every
end-to-end metric ``BENCHMARK.json`` declares.  Every run of a record
must come from one source tree and one host.  A change measured before
it is committed reports its parent's git sha; ``source_sha256`` tells
the two records apart.  Traced runs report per-layer metrics and are
refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, Iterable, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_e2e.json")
HOST_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc")


def end_to_end_metrics() -> Dict[str, str]:
    """End-to-end metric name -> unit, as ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["end_to_end"]}


def parse_run(text: str) -> dict:
    """The details and result lines of one run's standard output."""
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError("expected the details and result JSON lines")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if details.get("trace"):
        raise ValueError("traced run: its metrics are per-layer")
    return {"details": details, "result": result}


def summarize(values: List[float]) -> dict:
    """Median, quartiles (inclusive method) and count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def build_record(label: str, runs: Iterable[dict],
                 metrics: Dict[str, str]) -> dict:
    runs = list(runs)
    if not runs:
        raise ValueError("no runs given")
    prints = [r["details"]["fingerprint"] for r in runs]
    tree = {(p["git_sha"], p["source_sha256"]) for p in prints}
    host = {tuple(p[k] for k in HOST_KEYS) for p in prints}
    if len(tree) != 1 or len(host) != 1:
        raise ValueError("runs come from more than one source tree or host")
    workloads: Dict[str, dict] = {}
    for run, fp in zip(runs, prints):
        w = workloads.setdefault(run["details"]["workload"], {
            "seeds": [], "attempted": 0, "failed": 0, "runs": []})
        w["seeds"].append(fp["seed"])
        w["attempted"] += run["result"]["attempted"]
        w["failed"] += run["result"]["failed"]
        w["runs"].append(run["result"]["metrics"])
    for w in workloads.values():
        per_run = w.pop("runs")
        w["metrics"] = {
            name: {"unit": unit,
                   **summarize([m[name]["value"] for m in per_run])}
            for name, unit in metrics.items()}
    return {"label": label, "sha": prints[0]["git_sha"],
            "source_sha256": prints[0]["source_sha256"],
            "host": {k: prints[0][k] for k in HOST_KEYS},
            "workloads": workloads}


def append_record(path: str, record: dict) -> None:
    trajectory = {"records": []}
    if os.path.exists(path):
        with open(path) as f:
            trajectory = json.load(f)
    if any(r["label"] == record["label"] for r in trajectory["records"]):
        raise ValueError(f"a record labelled {record['label']!r} exists")
    trajectory["records"].append(record)
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True,
                   help="names the measured tree, e.g. the change it holds")
    p.add_argument("--out", default=TRAJECTORY)
    p.add_argument("runs", nargs="+", help="saved stdout of e2ebench runs")
    args = p.parse_args(argv)
    try:
        runs = []
        for path in args.runs:
            with open(path) as f:
                runs.append(parse_run(f.read()))
        append_record(args.out, build_record(args.label, runs,
                                             end_to_end_metrics()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
