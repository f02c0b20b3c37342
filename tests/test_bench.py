"""The bench contract: ``repro bench`` and ``check_regressions.py``
evaluate the same claims and agree on what "passing" means."""

import copy
import importlib.util
import inspect
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


def test_print_table_prints_and_writes_nothing(monkeypatch, tmp_path,
                                               capsys):
    # A bench run must not dirty the committed results directory.
    path = os.path.join(REPO_ROOT, "benchmarks", "bench_utils.py")
    spec = importlib.util.spec_from_file_location("bench_utils", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path))
    module.print_table("T", ["a", "b"], [[1, 22]])
    assert "=== T ===" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


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
        monkeypatch.setitem(bench.BENCHES, name, module.__name__)
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


def test_every_bench_module_is_registered_with_run():
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    modules = sorted(f[:-3] for f in os.listdir(bench_dir)
                     if f.startswith("bench_") and f.endswith(".py")
                     and f != "bench_utils.py")
    assert sorted(bench.BENCHES.values()) == modules
    for name in bench.BENCHES:
        params = inspect.signature(bench.load_bench(name).run).parameters
        assert list(params) == ["smoke"], name
        assert params["smoke"].default is False, name


def test_every_gated_bench_exposes_the_contract():
    assert set(bench.GATED) <= set(bench.BENCHES)
    for name in bench.GATED:
        assert callable(bench.load_bench(name).claims), name
        assert isinstance(bench.load_baseline(name), dict), name


# The benches that run in about a second -> their committed result file.
FAST_RESULTS = {
    "fig2_imc": "fig2_imc",
    "table2_lidar_energy": "table2_lidar_energy",
    "codesign": "codesign_thesis",
    "speculative_decoding": "speculative_decoding",
    "multiagent_energy": "claim_multiagent_energy",
    "sensing_fraction": "claim_sensing_fraction",
    "lora_adaptation": "lora_adaptation",
    "ablation_halo_precision": "ablation_halo_precision",
    "ablation_masking": "ablation_masking",
    "fig11_federated": "fig11_federated",
}


def _keys(value):
    if isinstance(value, dict):
        return {k: _keys(v) for k, v in value.items()}
    return None


@pytest.mark.parametrize("name", sorted(FAST_RESULTS))
def test_committed_result_has_the_fresh_payload_keys(name):
    # Keys only: a float may differ in its last digit across hosts.
    fresh = json.loads(json.dumps(bench.load_bench(name).run(), default=str))
    path = os.path.join(REPO_ROOT, "benchmarks", "results",
                        f"{FAST_RESULTS[name]}.json")
    with open(path) as f:
        assert _keys(fresh) == _keys(json.load(f))


def _compile_claims(payload):
    module = bench.load_bench("compile_stages")
    return module.claims(payload, bench.load_baseline("compile_stages"))


def test_compile_baseline_passes_every_claim():
    claims = _compile_claims(bench.load_baseline("compile_stages"))
    assert [str(c) for c in claims if not c.ok] == []


@pytest.mark.parametrize("field, value, broken", [
    ("max_abs_diff", 1e-6, "float-equivalent-mlp_64x3"),
    ("steady_state_allocations", 1, "zero-steady-allocs-mlp_64x3"),
    ("speedup", 1.49, "fused-arena-wins"),
])
def test_compile_claims_block_on_a_broken_contract(field, value, broken):
    payload = copy.deepcopy(bench.load_baseline("compile_stages"))
    # The speed floor is on the best model, so every model goes under it.
    names = payload["models"] if field == "speedup" else ["mlp_64x3"]
    for name in names:
        payload["models"][name]["stages"]["fused_arena"][field] = value
    assert {c.name for c in _compile_claims(payload) if c.failed} == {broken}
