"""Shared plumbing of the end-to-end benchmark.

Run isolation (fresh artifact/replay/job stores, fixed BLAS threads,
library defaults), the host fingerprint, the host-speed probe that
every reported time is divided by, timing statistics, self times from
a ``repro.obs`` span tree, the orchestration every workload shares and
the result line.

This module must stay importable before numpy: :func:`isolate_process`
fixes the BLAS thread count, which only takes effect if it runs before
numpy loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from . import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Knobs that select non-default library behaviour; the benchmark
# measures what users get, so every one of them is removed.
DEFAULT_ENV = ("REPRO_KERNELS", "REPRO_COMPILE", "REPRO_CONTROL",
               "REPRO_WORKERS", "REPRO_CACHE")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per process: the sweep's pool runs nproc workers, so
# BLAS threads plus pool workers stay within nproc.
BLAS_THREADS = 1
STORE_ENV = {"REPRO_CACHE_DIR": "cache", "REPRO_SCENARIO_STORE": "scenarios",
             "REPRO_JOB_STORE": "jobs"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def isolate_process(scratch_parent: str) -> str:
    """Point every store at a fresh directory; fix BLAS threads.

    Returns the run's private scratch directory (inside the checkout),
    which :func:`cleanup` removes when the run ends.
    """
    for name in DEFAULT_ENV:
        os.environ.pop(name, None)
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    os.makedirs(scratch_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_parent)
    use_stores(scratch, "initial")
    return scratch


def use_stores(scratch: str, tag: str) -> None:
    """Repoint the three store roots at empty directories named ``tag``."""
    for env, leaf in STORE_ENV.items():
        path = os.path.join(scratch, tag, leaf)
        os.makedirs(path, exist_ok=True)
        os.environ[env] = path


class HostProbe:
    """How much slower than nominal the host runs right now.

    A 2-core VM's speed swings with what other tenants run on the
    cores it shares: a fixed piece of work takes 1.4x to 2.4x longer
    for stretches of seconds to minutes, and NumPy work swings the
    most.  Runs of the same code then differ by more than any bound
    would allow, so every time the benchmark reports is divided by the
    slowdown this probe measures just before and just after it.  The
    probe is fixed work of the kinds the workloads run (interpreted
    Python, small-array NumPy and small matrix products), in this file
    rather than in the package, so no change to the package moves it.
    """

    # The probe's time when no other tenant slows it: about its 5th
    # percentile over 3000 calls on a 2-core Xeon VM.  The mix's shares
    # of that time (about 0.5, 0.37 and 0.13) follow a least-squares fit
    # of repeated, identical closed-loop cycles' times to the three
    # kinds' times.
    NOMINAL_S = 1.4e-3

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.matrix = rng.random((64, 64))
        self.vector = rng.random(50)

    def _work(self) -> None:
        np = self.np
        total = 0
        for i in range(12000):
            total += i * i
        x = self.vector
        for _ in range(320):
            x = np.sqrt(x * 1.0001 + 0.5)
        b = self.matrix
        for _ in range(12):
            b = self.matrix @ b
            b /= b.max()

    def slowdown(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return (time.perf_counter() - t0) / self.NOMINAL_S


def timed_setups(build: Callable[[], Any], scratch: str, repeats: int,
                 probe: HostProbe,
                 release: Optional[Callable[[Any], None]] = None
                 ) -> Tuple[Any, List[float], List[float]]:
    """Run ``build`` ``repeats`` times, each against empty stores.

    Returns the last result, every wall time and every wall time over
    the host's slowdown around it; ``setup_s`` is the median of the
    latter, so one slow set-up does not decide the metric.  ``release``
    frees each earlier result, outside the timed region.
    """
    wall, host, result = [], [], None
    for i in range(repeats):
        if result is not None and release is not None:
            release(result)
        use_stores(scratch, f"setup-{i}")
        before = probe.slowdown()
        t0 = time.perf_counter()
        result = build()
        wall.append(time.perf_counter() - t0)
        host.append(wall[-1] / (0.5 * (before + probe.slowdown())))
    return result, wall, host


def cleanup(scratch: str) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    parent = os.path.dirname(scratch)
    try:
        os.rmdir(parent)  # only succeeds once no other run uses it
    except OSError:
        pass


def _git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def fingerprint(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "seed": seed,
    }


# ----------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], guaranteed: int,
         min_beyond: int = 10) -> dict:
    """The highest whole percentile that leaves at least ``min_beyond``
    of ``guaranteed`` samples above it, its value over ``values`` and
    their count.  ``guaranteed`` is the sample count every run reaches,
    so the percentile does not change with how fast the host runs."""
    import numpy as np
    q = 50
    for cand in range(99, 49, -1):
        if guaranteed * (100 - cand) / 100.0 >= min_beyond:
            q = cand
            break
    return {"percentile": q, "value": float(np.percentile(values, q)),
            "samples": len(values)}


def peak_rss_mb() -> float:
    """Peak resident memory of this process, or of any child it has
    waited for (the sweep's pool workers, once the pool is closed)."""
    return max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# ---------------------------------------------------------------- spans
def spans(registry) -> Iterator[Any]:
    """Every span of the registry's trees."""
    todo = list(registry.spans)
    while todo:
        span = todo.pop()
        yield span
        todo.extend(span.children)


def durations(registry, name: str) -> List[float]:
    return [span.duration_s for span in spans(registry) if span.name == name]


def layer_self_s(registry) -> Dict[str, float]:
    """Total self time (a span's duration minus its children's) per
    layer, the span name's first component."""
    out: Dict[str, float] = {}
    for span in spans(registry):
        layer = span.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + span.duration_s - sum(
            child.duration_s for child in span.children)
    return out


# -------------------------------------------------------- orchestration
class Runner:
    """One stream of a workload's ops, under one ``repro.obs`` registry.

    A workload subclasses it with :meth:`step` (one loop cycle, serving
    batch or sweep plan), ``MIN_STEPS`` (every run takes at least this
    many steps, however fast the host; each step gives one latency
    sample) and ``ops`` (ops completed).  :func:`drive` times every
    step and, on a traced registry, opens the ``SPAN`` root span around
    it, carrying the step's op id; the spans a step opens nest under it.
    ``slowdown[i]`` is the host's slowdown around step ``i``
    (:class:`HostProbe`); reported times are divided by it.
    """

    SPAN = ""
    MIN_STEPS = 1

    def __init__(self, obs):
        self.obs = obs
        self.step_s: List[float] = []
        self.slowdown: List[float] = []
        self.failed = 0
        self.error: Optional[str] = None

    @property
    def ops(self) -> int:
        raise NotImplementedError

    @property
    def attempted(self) -> int:
        return self.ops + self.failed

    @property
    def wall_s(self) -> float:
        return sum(self.step_s)

    @property
    def host_s(self) -> float:
        """Summed step time, each step over the host's slowdown."""
        return sum(s / k for s, k in zip(self.step_s, self.slowdown))

    def latency_ms(self) -> List[float]:
        """Per-op latency over the host's slowdown around its step."""
        return [1e3 * s / k for s, k in zip(self.step_s, self.slowdown)]

    def op_id(self) -> str:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def can_stop(self) -> bool:
        return len(self.step_s) >= self.MIN_STEPS

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        self.error = f"{self.op_id()}: {exc!r}"

    def close(self) -> None:
        """Finish outstanding work once the last step has run."""


MAX_STEPS = 1_000_000


def drive(runners: Sequence[Runner], seconds: float, probe: HostProbe,
          steps: Optional[int] = None) -> None:
    """Step the runners in turn, one step each per round: ``steps``
    rounds, or until ``seconds`` have passed and the first runner can
    stop.  Interleaving puts a traced runner's steps beside untraced
    ones doing the same work, so both see the same host.  The probe
    runs between steps, outside the timed region.  The first failed
    step ends the drive."""
    from repro.obs import use_registry
    start = time.perf_counter()
    before = probe.slowdown()
    for _ in range(MAX_STEPS if steps is None else steps):
        if (steps is None and runners[0].can_stop()
                and time.perf_counter() - start >= seconds):
            break
        for runner in runners:
            try:
                with use_registry(runner.obs):
                    t0 = time.perf_counter()
                    with runner.obs.trace_span(
                            runner.SPAN, attrs={"op": runner.op_id()}):
                        runner.step()
                    runner.step_s.append(time.perf_counter() - t0)
            except Exception as exc:  # reported as a failed op
                runner.fail(exc)
                break
            after = probe.slowdown()
            runner.slowdown.append(0.5 * (before + after))
            before = after
        if any(runner.failed for runner in runners):
            break
    for runner in runners:
        with use_registry(runner.obs):
            runner.close()


# Enough for every span of the longest traced run.
MAX_SPANS = 1_000_000


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 scratch: str) -> dict:
    """Set up, warm up and measure one workload module.

    The module provides ``SETUP_REPEATS``, ``WARM_STEPS``,
    ``setup(seed)``, a :class:`Runner` subclass ``Runner(state, obs)``
    (which copies what its steps mutate), ``checks(runner)``,
    ``end_to_end(runner)``, ``layer_metrics(runner, registry)`` and
    ``details(runner)``; optionally ``release(state)``,
    ``trace_checks(traced, untraced, registry)`` and ``probe(state)``,
    a probe of the host where the steps' work runs, if not in this
    process.

    Untraced, ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups
    from empty stores.  Traced, one set-up runs under a registry (for
    ``cache.misses``), then an untraced and a traced runner alternate
    steps for ``seconds``; their wall times give
    ``obs.trace_overhead_share``.  Every end-to-end time is divided by
    the host's slowdown around it (:class:`HostProbe`); the wall-clock
    figures are kept in ``details["wall"]``.
    """
    from repro.obs import NOOP_REGISTRY, MetricsRegistry, use_registry
    release = getattr(workload, "release", None)
    setup_registry = MetricsRegistry()
    probe = HostProbe()
    if trace:
        use_stores(scratch, "setup-traced")
        with use_registry(setup_registry):
            state = workload.setup(seed)
        setup_wall: List[float] = []
        setup_times: List[float] = []
    else:
        state, setup_wall, setup_times = timed_setups(
            lambda: workload.setup(seed), scratch, workload.SETUP_REPEATS,
            probe, release)
    registry = MetricsRegistry(max_spans=MAX_SPANS) if trace else None
    if hasattr(workload, "probe"):
        probe = workload.probe(state)
    try:
        # First-call costs land on a throwaway runner, on no measured one.
        warm = workload.Runner(state, NOOP_REGISTRY)
        drive([warm], 0.0, probe, steps=workload.WARM_STEPS)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.error}")
        untraced = workload.Runner(state, NOOP_REGISTRY)
        runners = [untraced]
        if trace:
            runners.append(workload.Runner(state, registry))
        drive(runners, seconds, probe)
    finally:
        if release is not None:
            release(state)
    measured = runners[-1]
    failed = next((r for r in runners if r.failed), None)

    def run_checks():
        check(failed is None, f"an op failed: {failed and failed.error}")
        for runner in runners:
            workload.checks(runner)
        if trace:
            check(registry.tracer.dropped == 0, "spans were dropped")
            check(all(s.name == measured.SPAN for s in registry.spans),
                  "a span opened outside every step")
            if hasattr(workload, "trace_checks"):
                workload.trace_checks(measured, untraced, registry)

    out = result(run_checks, measured.attempted,
                 measured.attempted - measured.ops, {},
                 {"setup_s": setup_times})
    out["registry"] = registry
    if not out["correct"]:
        return out
    details = out["details"]
    details["tail"] = tail(measured.latency_ms(), measured.MIN_STEPS)
    details["host_slowdown_p50"] = median(measured.slowdown)
    details["wall"] = {
        "setup_s": setup_wall,
        "throughput_per_s": measured.ops / measured.wall_s,
        "latency_p50_ms": median([1e3 * t for t in measured.step_s])}
    details.update(workload.details(measured))
    if trace:
        out["metrics"] = metrics.per_layer(layer_values(
            workload, measured, untraced, registry, setup_registry))
        details["layer_self_ms_per_op"] = {
            layer: 1e3 * s / measured.ops
            for layer, s in layer_self_s(registry).items()}
    else:
        out["metrics"] = metrics.end_to_end({
            "setup_s": median(setup_times),
            "throughput_per_s": measured.ops / measured.host_s,
            "latency_p50_ms": median(measured.latency_ms()),
            "latency_tail_ms": details["tail"]["value"],
            **workload.end_to_end(measured)})
    return out


def layer_values(workload, traced: Runner, untraced: Runner, registry,
                 setup_registry) -> Dict[str, float]:
    """The per-layer metrics every workload reports, plus its own."""
    n = traced.ops
    self_s = layer_self_s(registry)
    values = {
        "cache.misses": setup_registry.snapshot()["counters"].get(
            "runtime.cache_misses", 0.0),
        "obs.trace_overhead_share": traced.wall_s / untraced.wall_s - 1.0,
        **metrics.kernel_metrics(registry.snapshot()["histograms"], n),
        **{f"{layer}.self_ms": 1e3 * self_s.get(layer, 0.0) / n
           for layer in metrics.SELF_TIME_LAYERS},
    }
    values.update(workload.layer_metrics(traced, registry))
    return values


# ------------------------------------------------------------- results
class CheckFailed(Exception):
    """An output check of a workload did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def result(run_checks: Callable[[], None], attempted: int, failed: int,
           values: dict, details: dict) -> dict:
    """A run's result; ``details["check"]`` names the first failed check."""
    correct, details["check"] = True, "ok"
    try:
        run_checks()
    except CheckFailed as exc:
        correct, details["check"] = False, str(exc)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": values, "details": details}


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)
