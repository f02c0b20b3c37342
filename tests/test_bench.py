"""The bench contract: ``repro bench`` and ``check_regressions.py``
evaluate the same claims and agree on what "passing" means."""

import importlib.util
import json
import os
import sys
import types

import pytest

from repro.cli import main
from repro.runtime import bench
from repro.runtime.bench import Claim

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _gate():
    path = os.path.join(REPO_ROOT, "benchmarks", "check_regressions.py")
    spec = importlib.util.spec_from_file_location("check_regressions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _claim_lines(text):
    return [line for line in text.splitlines() if line.startswith("  [")]


@pytest.fixture
def fake_registry(monkeypatch, tmp_path):
    """Point the registry at a temporary benchmarks dir with no gates;
    returns a function that registers a fake gated bench whose module
    lives only in memory."""
    monkeypatch.setattr(bench, "benchmarks_dir", lambda: str(tmp_path))
    monkeypatch.setattr(bench, "GATED", {})
    (tmp_path / "results").mkdir()

    def register(name, baseline, run=lambda smoke=False: {"value": 1}):
        module = types.ModuleType(f"bench_{name}")
        module.run = run
        module.claims = lambda payload, base: [
            Claim("fake-warning", False, False, "always warns"),
            Claim("fake-blocking", payload["value"] == base["value"], True,
                  f"value {payload['value']} vs baseline {base['value']}"),
        ]
        monkeypatch.setitem(sys.modules, module.__name__, module)
        monkeypatch.setitem(bench.BENCHES, name, (module.__name__, "run"))
        bench.GATED[name] = (name, False)
        (tmp_path / "results" / f"{name}.json").write_text(
            json.dumps(baseline))

    return register


def test_bench_control_smoke_passes(capsys):
    assert main(["bench", "control_adaptation", "--smoke"]) == 0
    captured = capsys.readouterr()
    # Without --out, stdout is the results JSON alone; claims go to stderr.
    assert "control_adaptation" in json.loads(captured.out)
    assert "[ok  ] dominates-every-static" in captured.err


def test_unknown_bench_exits_2():
    assert main(["bench", "not_a_bench"]) == 2


def test_failing_blocking_claim_fails_cli_and_gate(fake_registry, tmp_path,
                                                   capsys):
    gate = _gate()
    fake_registry("fake_gate", {"value": 2})
    assert main(["bench", "fake_gate", "--workers", "1",
                 "--out", str(tmp_path / "out.json")]) == 1
    cli_lines = _claim_lines(capsys.readouterr().out)
    assert gate.main() == 1
    gate_lines = _claim_lines(capsys.readouterr().out)
    assert cli_lines == gate_lines
    assert "  [FAIL] fake-blocking: value 1 vs baseline 2" in cli_lines


def test_failing_warning_claim_exits_0(fake_registry, tmp_path, capsys):
    gate = _gate()
    fake_registry("fake_gate", {"value": 1})
    assert main(["bench", "fake_gate", "--workers", "1",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert gate.main() == 0
    assert "  [warn] fake-warning: always warns" in capsys.readouterr().out


def test_gate_runs_every_bench_after_a_harness_error(fake_registry, capsys):
    def broken(smoke=False):
        raise RuntimeError("harness broke")

    gate = _gate()
    fake_registry("broken_gate", {"value": 1}, run=broken)
    fake_registry("fake_gate", {"value": 2})
    assert gate.main() == 2
    out = capsys.readouterr().out
    assert "harness broke" in out
    assert "  [FAIL] fake-blocking: value 1 vs baseline 2" in out
    assert "broken_gate  ERROR" in out


def test_every_gated_bench_exposes_the_contract():
    assert set(bench.GATED) <= set(bench.BENCHES)
    for name in bench.GATED:
        module = bench.load_bench(name)
        assert bench.BENCHES[name][1] == "run", name
        assert callable(module.run) and callable(module.claims), name
        assert isinstance(bench.load_baseline(name), dict), name
