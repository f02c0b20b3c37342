"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports, and writes its structured output
to ``benchmarks/results/`` so runs leave an auditable record.  Absolute
numbers come from our simulated substrates; the *shape* (who wins, by
roughly what factor, where crossovers fall) is what each bench asserts.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(name: str, payload: dict) -> str:
    """Persist a benchmark's structured output as JSON."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    return path


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Render an aligned text table to stdout (shows under ``pytest -s``)."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print("\n".join(lines))


def assert_claims(claims, also: Sequence[str] = ()) -> None:
    """Print a bench's claims, then assert every blocking one holds,
    plus the warning-level ones named in ``also``."""
    for claim in claims:
        print(f"  {claim}")
    missing = set(also) - {claim.name for claim in claims}
    assert not missing, f"no such claims: {sorted(missing)}"
    failed = [str(claim) for claim in claims
              if not claim.ok and (claim.blocking or claim.name in also)]
    assert not failed, failed
