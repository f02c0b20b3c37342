"""Subprocess-level CLI end-to-end tests.

``tests/test_cli_fusion.py`` exercises ``repro.cli.main`` in-process;
these tests instead spawn ``python -m repro ...`` the way CI and users
do, pinning *process* exit codes, stdout JSON shapes, and environment
handling (``REPRO_CACHE_DIR``) that in-process calls cannot witness.
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _repro(*args, env_extra=None, timeout=180):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=timeout)


# ------------------------------------------------------------------- list
def test_list_exit_code_and_inventory():
    proc = _repro("list")
    assert proc.returncode == 0
    for token in ("demos:", "benches:", "quickstart", "table2"):
        assert token in proc.stdout


# ------------------------------------------------------------------- demo
def test_demo_quickstart_succeeds():
    proc = _repro("demo", "quickstart", env_extra={"REPRO_CACHE": "0"})
    assert proc.returncode == 0


def test_demo_unknown_exits_nonzero():
    proc = _repro("demo", "not-a-demo")
    assert proc.returncode == 2


# ---------------------------------------------------------------- profile
def test_profile_demo_json_artifact(tmp_path):
    out = tmp_path / "trace.json"
    proc = _repro("profile", "demo", "--cycles", "10",
                  "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["target"] == "demo"
    assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}
    assert payload["metrics"]["counters"]  # the loop counted something
    assert isinstance(payload["spans"], list) and payload["spans"]


def test_profile_bench_json_artifact(tmp_path):
    # Fig. 11's bench runs four federated modes of ten rounds each.
    out = tmp_path / "trace.json"
    proc = _repro("profile", "fig11_federated", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["target"] == "fig11_federated"
    assert [s["name"] for s in payload["spans"]] == ["federated.round"] * 40


def test_profile_unknown_target_exits_nonzero():
    proc = _repro("profile", "not-a-target")
    assert proc.returncode == 2
    assert "unknown profile target" in proc.stderr


# ------------------------------------------------------------------ cache
def test_cache_info_clear_roundtrip(tmp_path):
    root = tmp_path / "cache"
    env = {"REPRO_CACHE_DIR": str(root)}

    proc = _repro("cache", "info", "--json", env_extra=env)
    assert proc.returncode == 0
    info = json.loads(proc.stdout)
    assert set(info) >= {"root", "entries", "total_bytes", "by_kind",
                         "files", "enabled", "scenarios", "jobs"}
    assert info["entries"] == 0
    assert info["scenarios"]["entries"] == 0
    assert info["jobs"]["entries"] == 0

    # Populate all three stores through real code paths: a memoized
    # build, a stored sweep and a job checkpoint.
    script = (
        "from repro.federated import JobStore\n"
        "from repro.runtime import cached_build\n"
        "from repro.scenario import Scenario, run_sweep\n"
        "print(cached_build('e2e', {'k': 1}, lambda: 41 + 1))\n"
        "run_sweep([Scenario(stack=(('fog', 0.5),))], workers=1,"
        " store=True)\n"
        "JobStore().open_job('e2e', 1).checkpoint({'wave': 1})\n")
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src"),
             **env})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "42"
    # Files the stores never wrote must survive ``clear``.
    foreign = [root / "notes.txt", root / "scenarios" / "notes.txt",
               root / "jobs" / "my-notes" / "notes.txt"]
    for path in foreign:
        path.parent.mkdir(exist_ok=True)
        path.write_text("keep")

    info = json.loads(_repro("cache", "info", "--json",
                             env_extra=env).stdout)
    assert info["entries"] == 1
    assert info["by_kind"] == {"e2e": 1}
    assert info["scenarios"]["packs"] == 1
    assert info["scenarios"]["entries"] == 1
    assert info["jobs"]["entries"] == 1
    assert info["jobs"]["by_status"] == {"running": 1}

    proc = _repro("cache", "clear", env_extra=env)
    assert proc.returncode == 0
    assert ("removed 1 cached artifact(s), 1 replay pack(s) and 1 job(s)"
            in proc.stdout)

    info = json.loads(_repro("cache", "info", "--json",
                             env_extra=env).stdout)
    assert info["entries"] == 0
    assert info["scenarios"]["entries"] == 0
    assert info["jobs"]["entries"] == 0
    assert all(path.read_text() == "keep" for path in foreign)


# ----------------------------------------------------------------- verify
def test_verify_single_scenario_json_report(tmp_path):
    """Record then verify one scenario against a private goldens dir,
    checking the report covers every differential."""
    goldens = tmp_path / "goldens"
    record = _repro("verify", "koopman_lqr", "--update-goldens",
                    "--goldens-dir", str(goldens), "--workers", "2")
    assert record.returncode == 0, record.stdout + record.stderr
    assert (goldens / "koopman_lqr.jsonl").exists()

    proc = _repro("verify", "koopman_lqr", "--goldens-dir", str(goldens),
                  "--workers", "2", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    checks = {(r["scenario"], r["check"], r["status"])
              for r in report["results"]}
    assert checks == {("koopman_lqr", c, "pass")
                      for c in ("serial", "pooled", "cache", "quantized",
                                "kernels", "compiled")}
    assert report["kernel_backend"] in ("reference", "vectorized")


def test_verify_unknown_scenario_exits_nonzero():
    proc = _repro("verify", "not-a-scenario")
    assert proc.returncode == 2
    assert "unknown scenario" in proc.stderr


def test_verify_missing_golden_fails(tmp_path):
    proc = _repro("verify", "snn_flow", "--goldens-dir",
                  str(tmp_path / "empty"), "--skip",
                  "pooled,cache,quantized")
    assert proc.returncode == 1
