"""Differential verification: one scenario, five execution strategies.

For every golden scenario this driver runs the checks the runtime and
kernel layers must keep true:

* ``serial``    — a fresh, cache-disabled serial run must reproduce the
  committed golden: **bit for bit** when the reference kernel backend
  is active (goldens are recorded under it), within the per-scenario
  kernel-drift tolerances when the vectorized backend is active (its
  re-associated reductions drift at the last ulp);
* ``pooled``    — the same scenario recorded inside a
  :class:`~repro.runtime.WorkerPool` worker (and, for the federated
  scenario, additionally with its *internal* client-training pool) must
  be bit-identical to a same-backend serial run — PR 2's determinism
  promise holds per backend;
* ``cache``     — a cold run that *populates* a private artifact cache
  and a warm run that *hits* it must both be bit-identical to a
  same-backend serial run; scenarios known to exercise the cache must
  actually create entries, so a silently unwired memoizer fails loudly;
* ``quantized`` — the fake-quantized variant must stay within the
  scenario's declared per-field tolerances (training records, which the
  quantization must not touch, stay exact against the same backend);
* ``kernels``   — the scenario re-run under the *other* kernel backend
  must agree with the golden: exactly when that other backend is the
  reference (it reproduces the recording), within the declared
  kernel-drift tolerances when it is the vectorized one.  This is the
  standing differential that keeps the two implementations of every
  hot-path kernel equivalent at scenario scale.

``run_verify`` is the library entry point; ``main_verify`` backs the
``repro verify`` CLI subcommand, including ``--update-goldens`` (record
fresh goldens — always under the reference backend — then verify
against them) and ``--diff-out`` (a JSON mismatch artifact CI uploads
on failure).
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..kernels import BACKENDS, active_backend, kernel_backend
from ..runtime.cache import CACHE_ENV
from ..runtime.pool import WorkerPool, resolve_workers
from ..runtime.store import CACHE_DIR_ENV, ArtifactCache
from .golden import (
    GoldenError,
    Trace,
    compare_traces,
    default_goldens_dir,
    read_golden,
    write_golden,
)
from .scenarios import (
    KERNEL_DRIFT_TOLERANCES,
    SCENARIOS,
    run_scenario,
    run_scenario_task,
    scenario_names,
)
from .tolerance import Mismatch

__all__ = ["CHECKS", "CACHED_SCENARIOS", "CheckResult", "VerifyReport",
           "run_verify", "main_verify"]

CHECKS = ("serial", "pooled", "cache", "quantized", "kernels")
# Scenarios whose training paths are memoized by repro.runtime.cache;
# their cold runs must create at least one artifact or the cache
# differential is vacuous.  (snn_flow's trainer is deliberately
# uncached — it is the control that fresh computation also verifies.)
CACHED_SCENARIOS = frozenset(
    {"rmae_detect", "koopman_lqr", "starnet_monitor", "federated_round"})

# Mismatches kept per failing check in reports/artifacts.
MAX_REPORTED_MISMATCHES = 25


@contextmanager
def _cache_env(enabled: bool, cache_dir: Optional[str] = None):
    """Temporarily pin the artifact-cache environment knobs."""
    saved = {k: os.environ.get(k) for k in (CACHE_ENV, CACHE_DIR_ENV)}
    os.environ[CACHE_ENV] = "1" if enabled else "0"
    if cache_dir is not None:
        os.environ[CACHE_DIR_ENV] = cache_dir
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@dataclass
class CheckResult:
    """Outcome of one differential check on one scenario."""

    scenario: str
    check: str
    status: str  # "pass" | "fail" | "skip"
    mismatches: List[Mismatch] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "mismatches": [asdict(m) for m in
                           self.mismatches[:MAX_REPORTED_MISMATCHES]],
            "n_mismatches": len(self.mismatches),
        }


@dataclass
class VerifyReport:
    """Every check result of one ``repro verify`` invocation."""

    results: List[CheckResult] = field(default_factory=list)
    goldens_dir: str = ""
    updated: List[str] = field(default_factory=list)
    backend: str = ""

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.ok]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "goldens_dir": self.goldens_dir,
            "kernel_backend": self.backend,
            "updated_goldens": list(self.updated),
            "results": [r.as_dict() for r in self.results],
        }

    def render(self) -> str:
        lines = []
        if self.backend:
            lines.append(f"  kernel backend: {self.backend}")
        by_scenario: Dict[str, List[CheckResult]] = {}
        for r in self.results:
            by_scenario.setdefault(r.scenario, []).append(r)
        for scenario, results in by_scenario.items():
            marks = []
            for r in results:
                mark = {"pass": "ok", "skip": "--"}.get(r.status, "FAIL")
                marks.append(f"{r.check}={mark}")
            lines.append(f"  {scenario:18s} {'  '.join(marks)}")
        for r in self.failures():
            lines.append(f"\n{r.scenario} / {r.check}: "
                         f"{len(r.mismatches)} mismatch(es)"
                         + (f" ({r.detail})" if r.detail else ""))
            for m in r.mismatches[:MAX_REPORTED_MISMATCHES]:
                lines.append(f"    {m.render()}")
            hidden = len(r.mismatches) - MAX_REPORTED_MISMATCHES
            if hidden > 0:
                lines.append(f"    ... and {hidden} more")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"\nverify: {verdict} "
                     f"({sum(r.status == 'pass' for r in self.results)} "
                     f"passed, {len(self.failures())} failed, "
                     f"{sum(r.status == 'skip' for r in self.results)} "
                     "skipped)")
        return "\n".join(lines)


def _compare(scenario: str, check: str, golden: Trace, actual: Trace,
             mode: str, detail: str = "",
             extra_tolerances: Optional[dict] = None) -> CheckResult:
    mismatches = compare_traces(golden, actual, mode=mode,
                                extra_tolerances=extra_tolerances)
    return CheckResult(scenario, check,
                       "pass" if not mismatches else "fail",
                       mismatches, detail)


# ------------------------------------------------------------------ driver
def run_verify(scenarios: Optional[Sequence[str]] = None,
               update_goldens: bool = False,
               workers: Optional[int] = None,
               goldens_dir: Optional[str] = None,
               skip: Sequence[str] = (),
               cache_root: Optional[str] = None) -> VerifyReport:
    """Run every differential check; returns the full report.

    ``workers`` sizes the pooled differential (always at least 2 so the
    check genuinely crosses a process boundary); ``skip`` names checks
    to omit (e.g. ``("pooled",)`` on hosts without ``multiprocessing``).
    ``cache_root`` overrides the private cache directory used by the
    cache differential (a fresh temporary directory by default).

    Checks are backend-aware: goldens are always recorded under the
    reference kernel backend, so against-golden comparisons are exact
    only when the reference backend is active; under the vectorized
    backend the serial check applies the declared kernel-drift
    tolerances and the pooled/cache/quantized checks anchor on the
    same-backend serial recording instead.
    """
    import tempfile

    names = list(scenarios) if scenarios else scenario_names()
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s) {', '.join(unknown)}; "
                       f"choose from {', '.join(SCENARIOS)}")
    bad_skips = [s for s in skip if s not in CHECKS]
    if bad_skips:
        raise KeyError(f"unknown check(s) {', '.join(bad_skips)}; "
                       f"choose from {', '.join(CHECKS)}")
    directory = goldens_dir or default_goldens_dir()
    pool_workers = max(2, resolve_workers(workers))
    backend = active_backend()
    reference_active = backend == "reference"
    other_backend = next(b for b in BACKENDS if b != backend)
    report = VerifyReport(goldens_dir=directory, backend=backend)

    # Phase 1 — canonical serial, cache-disabled recordings under the
    # active backend.  These double as the anchor traces for the
    # pooled/cache/quantized checks when the active backend is not the
    # one the goldens were recorded under.
    serial: Dict[str, Trace] = {}
    with _cache_env(enabled=False):
        for name in names:
            serial[name] = run_scenario(name)

    # Phase 2 — goldens: record or load, then the serial regression
    # check.  Goldens are *always* recorded under the reference backend
    # so the committed files are independent of REPRO_KERNELS.
    goldens: Dict[str, Trace] = {}
    for name in names:
        if update_goldens:
            if reference_active:
                write_golden(serial[name], directory)
            else:
                with _cache_env(enabled=False), kernel_backend("reference"):
                    write_golden(run_scenario(name), directory)
            report.updated.append(name)
        try:
            goldens[name] = read_golden(name, directory)
        except GoldenError as exc:
            report.results.append(CheckResult(
                name, "serial", "fail", [], detail=str(exc)))
            continue
        if "serial" in skip:
            report.results.append(CheckResult(name, "serial", "skip"))
        elif reference_active:
            report.results.append(_compare(
                name, "serial", goldens[name], serial[name], "exact",
                detail="fresh serial run vs committed golden "
                       "(reference backend)"))
        else:
            report.results.append(_compare(
                name, "serial", goldens[name], serial[name], "tolerance",
                detail=f"fresh serial run ({backend} backend) vs "
                       "reference-recorded golden, kernel-drift tolerances",
                extra_tolerances=KERNEL_DRIFT_TOLERANCES.get(name)))

    active = [n for n in names if n in goldens]

    def _anchor(name: str) -> Trace:
        # Bit-identity checks must compare same-backend runs: the
        # golden when the active backend recorded it, otherwise this
        # invocation's own serial recording.
        return goldens[name] if reference_active else serial[name]

    anchor_desc = ("committed golden" if reference_active
                   else f"{backend}-backend serial run")

    # Phase 3 — pooled: record inside worker processes; the federated
    # scenario additionally runs its internal client-training pool.
    if "pooled" not in skip and active:
        with _cache_env(enabled=False):
            with WorkerPool(workers=pool_workers) as pool:
                pooled = pool.map(run_scenario_task, active,
                                  label="verify.pooled")
                for name, trace in zip(active, pooled):
                    report.results.append(_compare(
                        name, "pooled", _anchor(name), trace, "exact",
                        detail=f"recorded in a {pool_workers}-worker pool "
                               f"vs {anchor_desc}"))
                if "federated_round" in goldens:
                    internal = run_scenario("federated_round", pool=pool)
                    report.results.append(_compare(
                        "federated_round", "pooled",
                        _anchor("federated_round"), internal, "exact",
                        detail="internal FLServer.run_round(pool=...) path"))
    else:
        for name in active:
            report.results.append(CheckResult(name, "pooled", "skip"))

    # Phase 4 — cache: cold populate + warm hit against a private cache.
    for name in active:
        if "cache" in skip:
            report.results.append(CheckResult(name, "cache", "skip"))
            continue
        root = cache_root or tempfile.mkdtemp(prefix="repro-verify-cache-")
        with _cache_env(enabled=True, cache_dir=root):
            cold = run_scenario(name)
            entries = ArtifactCache(root).info()["entries"]
            warm = run_scenario(name)
        result = _compare(name, "cache", _anchor(name), cold, "exact",
                          detail=f"cold run ({entries} cache entries) "
                                 f"vs {anchor_desc}")
        if result.ok:
            result = _compare(name, "cache", _anchor(name), warm, "exact",
                              detail=f"warm run ({entries} cache entries) "
                                     f"vs {anchor_desc}")
        if result.ok and name in CACHED_SCENARIOS and entries == 0:
            result = CheckResult(
                name, "cache", "fail", [],
                detail="scenario is expected to exercise the artifact "
                       "cache but its cold run created no entries")
        report.results.append(result)

    # Phase 5 — quantized: bounded drift under the declared tolerances,
    # against a same-backend float anchor so kernel drift cannot eat
    # into the quantization budget.
    with _cache_env(enabled=False):
        for name in active:
            if "quantized" in skip:
                report.results.append(CheckResult(name, "quantized", "skip"))
                continue
            quant = run_scenario(name, variant="quantized")
            report.results.append(_compare(
                name, "quantized", _anchor(name), quant, "tolerance",
                detail=f"fake-quantized evaluation vs float {anchor_desc}"))

    # Phase 6 — kernels: the scenario under the *other* backend must
    # agree with the golden (exactly when that other backend is the
    # reference; within the declared drift tolerances when it is the
    # vectorized one).
    with _cache_env(enabled=False):
        for name in active:
            if "kernels" in skip:
                report.results.append(CheckResult(name, "kernels", "skip"))
                continue
            with kernel_backend(other_backend):
                cross = run_scenario(name)
            if other_backend == "reference":
                report.results.append(_compare(
                    name, "kernels", goldens[name], cross, "exact",
                    detail="reference-backend re-run vs committed golden"))
            else:
                report.results.append(_compare(
                    name, "kernels", goldens[name], cross, "tolerance",
                    detail=f"{other_backend}-backend re-run vs committed "
                           "golden, kernel-drift tolerances",
                    extra_tolerances=KERNEL_DRIFT_TOLERANCES.get(name)))

    return report


# --------------------------------------------------------------------- CLI
def main_verify(scenarios: Sequence[str], update_goldens: bool,
                workers: Optional[int], goldens_dir: str, diff_out: str,
                as_json: bool, skip: str) -> int:
    """Back the ``repro verify`` subcommand; returns the exit code."""
    skips = tuple(s.strip() for s in skip.split(",") if s.strip())
    try:
        report = run_verify(
            scenarios or None,
            update_goldens=update_goldens,
            workers=workers,
            goldens_dir=goldens_dir or None,
            skip=skips)
    except KeyError as exc:
        print(str(exc.args[0]) if exc.args else repr(exc), file=sys.stderr)
        return 2
    if diff_out:
        try:
            with open(diff_out, "w") as f:
                json.dump(report.as_dict(), f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write diff artifact: {exc}", file=sys.stderr)
            return 2
        print(f"wrote verification report to {diff_out}", file=sys.stderr)
    if as_json:
        json.dump(report.as_dict(), sys.stdout, indent=2, default=str)
        print()
    else:
        if report.updated:
            print("updated goldens:", ", ".join(report.updated))
        print(report.render())
    return 0 if report.ok else 1
