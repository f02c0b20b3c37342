#!/usr/bin/env python
"""CI benchmark gate: re-run every gated bench and evaluate its claims
against the committed ``benchmarks/results/*.json`` baselines.

Absolute numbers from the simulated substrates may drift with numpy or
seed changes; what must not drift silently is the paper's qualitative
shape — who wins, by roughly what factor, where the ordering falls —
and the correctness contracts of the runtime subsystems.  The gate is a
loop over ``repro.runtime.bench.GATED``: each bench module declares its
claims once (``claims(payload, baseline)``), and ``repro bench`` prints
the very same claim lines.  Each bench runs its full config, except
where the registry says the gate re-runs the smoke config.

Claims come in two severities.  **Blocking** claims guard shape-level
facts and correctness contracts and fail the gate.  **Warning** claims
guard wall-clock multiples and numeric drift against the stored
baseline; they are reported but do not fail CI.

Exit status: 0 = no blocking regression (warnings allowed),
1 = blocking regression, 2 = harness error (every gate still runs).
Run from anywhere: ``python benchmarks/check_regressions.py``.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    from repro.runtime import bench

    print("benchmark regression gate "
          "(shape-level diffs vs benchmarks/results/)")
    results = {}  # gate -> claims, or None on a harness error
    for name, (_, smoke) in bench.GATED.items():
        try:
            _, payload, _ = bench.run_bench(name, smoke)
            claims = bench.check(name, payload)
        except Exception as exc:  # harness failure, not a regression
            print(f"{name}:\n  ERROR: {exc!r}")
            results[name] = None
            continue
        bench.print_claims(name, claims)
        results[name] = claims

    claims = [c for cs in results.values() if cs for c in cs]
    failures = [c for c in claims if c.failed]
    warnings = [c for c in claims if not c.ok and not c.blocking]
    print(f"\n{len(claims)} checks, {len(failures)} blocking regressions, "
          f"{len(warnings)} warnings")
    for c in warnings:
        print(f"  warning (non-blocking): {c.name}: {c.detail}")
    for c in failures:
        print(f"  regression (blocking): {c.name}: {c.detail}")

    # One line per gate so a CI log scan answers "what failed?".
    width = max(len(name) for name in results)
    print("\ngate summary:")
    for name, cs in results.items():
        if cs is None:
            print(f"  {name.ljust(width)}  ERROR")
            continue
        fails = sum(c.failed for c in cs)
        warns = sum(not c.ok and not c.blocking for c in cs)
        status = (f"FAIL ({fails} blocking)" if fails else
                  "PASS" + (f" ({warns} warnings)" if warns else ""))
        print(f"  {name.ljust(width)}  {len(cs):3d} checks  {status}")
    if None in results.values():
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    raise SystemExit(main())
