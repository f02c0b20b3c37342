"""The end-to-end perf trajectory: ``BENCH_e2e.json`` and the script
that appends to it (``benchmarks/e2e_record.py``)."""

import importlib.util
import json
import math
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _recorder():
    path = os.path.join(REPO_ROOT, "benchmarks", "e2e_record.py")
    spec = importlib.util.spec_from_file_location("e2e_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_trajectory_schema():
    with open(os.path.join(REPO_ROOT, "BENCH_e2e.json")) as f:
        records = json.load(f)["records"]
    spec = _benchmark()
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert len(records) >= 2
    assert len({r["label"] for r in records}) == len(records)
    # Every record has its (before, change) partner of the same sha.
    assert 2 * len(_recorder().pairs(records)) == len(records)
    for r in records:
        assert len(r["sha"]) == 40 and int(r["sha"], 16) >= 0
        assert len(r["source_sha256"]) == 64
        assert set(r["host"]) == set(_recorder().HOST_KEYS)
        assert r["workloads"] and set(r["workloads"]) <= workloads
        for w in r["workloads"].values():
            assert 0 <= w["failed"] <= w["attempted"] and w["attempted"] > 0
            assert set(w["metrics"]) == set(units)
            for name, m in w["metrics"].items():
                assert m["unit"] == units[name]
                assert m["n"] == len(w["seeds"]) >= 1
                assert all(math.isfinite(m[k]) for k in ("q1", "median",
                                                         "q3"))
                assert m["q1"] <= m["median"] <= m["q3"]


def _run_text(seed, workload="closed_loop", trace=0, source="a" * 64,
              throughput=10.0):
    fingerprint = {"git_sha": "f" * 40, "source_sha256": source,
                   "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
                   "blas_threads": 1, "nproc": 2, "seed": seed}
    details = {"fingerprint": fingerprint, "workload": workload,
               "trace": trace, "details": {}}
    metrics = {name: {"unit": unit, "value": throughput}
               for name, unit in _recorder().end_to_end_metrics().items()}
    result = {"correct": True, "attempted": 150, "failed": 0,
              "metrics": metrics}
    return f"noise\n{json.dumps(details)}\n{json.dumps(result)}\n"


def test_recorder_summarizes_runs_per_workload(tmp_path):
    rec = _recorder()
    runs = [rec.parse_run(_run_text(s, throughput=t))
            for s, t in [(1, 10.0), (2, 14.0), (3, 12.0), (4, 20.0)]]
    runs.append(rec.parse_run(_run_text(5, workload="log_replay")))
    out = tmp_path / "BENCH_e2e.json"
    rec.append_record(str(out), rec.build_record(
        "change", runs, rec.end_to_end_metrics()))
    record = json.loads(out.read_text())["records"][0]
    loop = record["workloads"]["closed_loop"]
    assert loop["seeds"] == [1, 2, 3, 4] and loop["attempted"] == 600
    assert loop["metrics"]["throughput_per_s"] == {
        "unit": "1/s", "median": 13.0, "q1": 11.5, "q3": 15.5, "n": 4}
    assert record["workloads"]["log_replay"]["metrics"]["latency_p50_ms"][
        "n"] == 1
    with pytest.raises(ValueError, match="exists"):
        rec.append_record(str(out), record)


def test_recorder_refuses_mixed_trees_and_traced_runs():
    rec = _recorder()
    with pytest.raises(ValueError, match="traced"):
        rec.parse_run(_run_text(1, trace=1))
    runs = [rec.parse_run(_run_text(1)),
            rec.parse_run(_run_text(2, source="b" * 64))]
    with pytest.raises(ValueError, match="source tree"):
        rec.build_record("mixed", runs, rec.end_to_end_metrics())


def _record(label, sha, source, **throughput):
    return {"label": label, "sha": sha, "source_sha256": source,
            "workloads": {name: {"metrics": {"throughput_per_s": {
                "median": value}}} for name, value in throughput.items()}}


def test_trend_chains_pairs_and_names_gaps():
    rec = _recorder()
    records = [
        _record("before A", "1" * 40, "a" * 64, closed_loop=100.0,
                log_replay=50.0),
        _record("A", "1" * 40, "b" * 64, closed_loop=120.0, log_replay=60.0),
        _record("before B", "2" * 40, "b" * 64, closed_loop=110.0,
                log_replay=40.0),
        _record("B", "2" * 40, "c" * 64, closed_loop=121.0, log_replay=30.0),
        # Tree "c" -> "d" was never measured: a gap, not a link.
        _record("before C", "3" * 40, "d" * 64, closed_loop=200.0),
        _record("C", "3" * 40, "e" * 64, closed_loop=300.0),
    ]
    chains = rec.trend(records)
    assert [(c["first"], c["last"], c["pairs"]) for c in chains] == [
        ("before A", "B", 2), ("before C", "C", 1)]
    assert chains[0]["gap_before"] is None
    assert chains[0]["ratio"] == pytest.approx(
        {"closed_loop": 1.2 * 1.1, "log_replay": 1.2 * 0.75})
    assert chains[1]["gap_before"] == {"after": "B", "from": "c" * 64,
                                       "to": "d" * 64}
    assert chains[1]["ratio"] == pytest.approx({"closed_loop": 1.5})
    text = rec.format_trend(chains)
    assert "closed_loop 1.320x" in text and "log_replay 0.900x" in text
    assert "gap: no record measures the change from source cccccccc" in text

