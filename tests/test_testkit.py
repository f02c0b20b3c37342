"""Unit tests for the golden-trace verification harness itself.

``repro verify`` is only trustworthy if the machinery under it is: the
tolerance engine must fail closed (unmatched fields stay exact), golden
files must round-trip byte-identically and reject tampering loudly, and
the differential driver must actually catch a regression — so a
deliberate drift is injected here and must come back as a failure.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.kernels import kernel_backend
from repro.testkit import (
    CHECKS,
    EXACT,
    CheckResult,
    FieldTolerance,
    GoldenError,
    GoldenIntegrityError,
    Trace,
    ToleranceSpec,
    TraceRecorder,
    compare_traces,
    diff_payload,
    read_golden,
    run_scenario,
    run_scenario_task,
    run_verify,
    scenario_names,
    summarize_value,
    tensor_summary,
    write_golden,
)

# ------------------------------------------------------- FieldTolerance


def test_field_tolerance_exact_and_bounds():
    assert EXACT.exact
    assert EXACT.allows(1.0, 1.0)
    assert not EXACT.allows(1.0, 1.0 + 1e-15)
    tol = FieldTolerance(atol=0.1, rtol=0.01)
    assert tol.allows(10.0, 10.2)      # 0.1 + 0.01*10 = 0.2
    assert not tol.allows(10.0, 10.21)
    assert tol.allows(-10.0, -10.2)    # rtol uses |golden|


def test_field_tolerance_nan_semantics():
    nan = float("nan")
    # NaN == NaN only under exact comparison; any tolerance rejects NaN.
    assert EXACT.allows(nan, nan)
    assert not EXACT.allows(nan, 1.0)
    assert not FieldTolerance(atol=1.0).allows(nan, nan)
    assert not FieldTolerance(atol=1.0).allows(1.0, nan)


def test_field_tolerance_ignore_allows_anything():
    tol = FieldTolerance(ignore=True)
    assert tol.allows(0.0, 1e9)
    assert tol.allows(float("nan"), 1.0)
    assert tol.as_dict() == {"ignore": True}


# -------------------------------------------------------- ToleranceSpec


def test_spec_first_match_wins_and_unmatched_is_exact():
    spec = ToleranceSpec({
        "train/loss": {"atol": 0.5},
        "train/*": {"atol": 0.1},
    })
    assert spec.lookup("train/loss").atol == 0.5   # earlier rule wins
    assert spec.lookup("train/grad_norm").atol == 0.1
    assert spec.lookup("eval/iou") is EXACT        # fail closed


def test_spec_glob_patterns_cover_list_indices():
    # List elements diff at "field[i]" paths; a trailing * covers them
    # (fnmatch would read a literal "[*]" as a character class).
    spec = ToleranceSpec({"rollout/reward*": {"rtol": 0.01}})
    assert spec.lookup("rollout/reward[3]").rtol == 0.01
    assert spec.lookup("rollout/rewind") is EXACT


def test_spec_round_trips_through_dict():
    raw = {"a/*": {"atol": 0.25, "rtol": 0.0}, "b": {"ignore": True}}
    assert ToleranceSpec.from_dict(raw).as_dict() == raw


# ---------------------------------------------------------- diff_payload


def test_diff_exact_equal_payloads_clean():
    payload = {"a": 1, "b": [1.5, "x"], "c": {"d": None, "e": True}}
    assert diff_payload(payload, dict(payload)) == []


def test_diff_reports_value_type_and_structure():
    golden = {"x": 1.0, "y": "s", "keep": 2, "nested": [1, 2]}
    actual = {"x": 1.5, "y": 3, "extra": 0, "nested": [1, 2, 3]}
    kinds = {m.path: m.kind for m in diff_payload(golden, actual)}
    assert kinds == {"x": "value", "y": "type", "keep": "structure",
                     "extra": "structure", "nested": "structure"}


def test_diff_list_paths_use_indices():
    (m,) = diff_payload({"r": [1.0, 2.0]}, {"r": [1.0, 2.5]})
    assert m.path == "r[1]" and m.kind == "value"
    assert "r[1]" in m.render()


def test_failing_check_reports_its_mismatches():
    mismatches = diff_payload({"r": [1.0, 2.0]}, {"r": [1.0, 2.5]})
    row = CheckResult("s", "serial", "fail", mismatches).as_dict()
    assert row["n_mismatches"] == 1
    assert row["mismatches"] == [{"path": "r[1]", "kind": "value",
                                  "golden": 2.0, "actual": 2.5,
                                  "detail": ""}]
    json.dumps(row)


def test_diff_tolerance_mode_allows_bounded_drift():
    spec = ToleranceSpec({"loss": {"atol": 0.1}})
    assert diff_payload({"loss": 1.0, "n": 3},
                        {"loss": 1.05, "n": 3}, spec) == []
    (m,) = diff_payload({"loss": 1.0}, {"loss": 1.2}, spec)
    assert m.kind == "tolerance" and "atol=0.1" in m.detail


def test_diff_tensor_exact_uses_hash_tolerance_uses_stats():
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    b = a + 1e-9
    ga, gb = tensor_summary(a), tensor_summary(b)
    # Exact: the content hash witnesses the bit difference.
    (m,) = diff_payload({"t": ga}, {"t": gb})
    assert m.path == "t/sha256"
    # Tolerance: hash is expected to change; stats stay in bounds.
    spec = ToleranceSpec({"t": {"atol": 1e-6}})
    assert diff_payload({"t": ga}, {"t": gb}, spec) == []
    # ... but a real drift still trips the stat comparison (mean, min,
    # max, and l2 all shift by 1.0; std is invariant).
    mismatches = diff_payload({"t": ga}, {"t": tensor_summary(a + 1.0)},
                              ToleranceSpec({"t": {"atol": 1e-6}}))
    assert mismatches and all(m.kind == "tolerance" for m in mismatches)
    assert {m.path for m in mismatches} >= {"t/mean", "t/min", "t/max"}


def test_diff_tensor_shape_mismatch_is_structural():
    ga = tensor_summary(np.zeros((2, 3)))
    gb = tensor_summary(np.zeros((3, 2)))
    (m,) = diff_payload({"t": ga}, {"t": gb})
    assert m.path == "t/shape" and m.kind == "structure"


# ------------------------------------------------------ canonicalization


def test_summarize_value_unwraps_numpy_scalars():
    out = summarize_value({"i": np.int64(3), "f": np.float32(0.5),
                           "b": np.bool_(True), "t": (1, 2)})
    assert out == {"i": 3, "f": 0.5, "b": True, "t": [1, 2]}
    assert isinstance(out["i"], int) and isinstance(out["f"], float)


def test_summarize_value_rejects_opaque_objects():
    with pytest.raises(TypeError, match="cannot record"):
        summarize_value({"model": object()})


def test_tensor_summary_hash_is_bit_sensitive():
    a = np.ones((4, 4))
    b = a.copy()
    b[3, 3] = np.nextafter(1.0, 2.0)  # single-ULP flip
    assert tensor_summary(a)["sha256"] != tensor_summary(b)["sha256"]
    # dtype participates in the hash even when the bytes could match.
    assert (tensor_summary(np.zeros(2, dtype=np.float64))["sha256"]
            != tensor_summary(np.zeros(4, dtype=np.float32))["sha256"])


# ------------------------------------------------------------- golden IO


def _toy_trace():
    rec = TraceRecorder("toy", {"step/loss": {"atol": 0.1}})
    rec.add("step", loss=0.5, weights=np.linspace(0, 1, 5), note="hi")
    rec.add("eval", acc=0.75, confusion=[[3, 1], [0, 4]])
    return rec.trace


def test_golden_round_trip_preserves_everything(tmp_path):
    trace = _toy_trace()
    write_golden(trace, str(tmp_path))
    loaded = read_golden("toy", str(tmp_path))
    assert loaded.scenario == "toy"
    assert loaded.records == trace.records
    assert loaded.tolerances == trace.tolerances
    assert compare_traces(trace, loaded, mode="exact") == []


def test_golden_rerecord_is_byte_identical(tmp_path):
    path = write_golden(_toy_trace(), str(tmp_path))
    first = open(path, "rb").read()
    write_golden(_toy_trace(), str(tmp_path))
    assert open(path, "rb").read() == first


def test_golden_missing_names_the_remedy(tmp_path):
    with pytest.raises(GoldenError, match="--update-goldens"):
        read_golden("nonexistent", str(tmp_path))


def test_golden_hand_edit_raises_integrity_error(tmp_path):
    path = write_golden(_toy_trace(), str(tmp_path))
    lines = open(path).read().splitlines()
    lines[2] = lines[2].replace("0.75", "0.99")
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(GoldenIntegrityError, match="content hash mismatch"):
        read_golden("toy", str(tmp_path))


def test_golden_truncation_raises_integrity_error(tmp_path):
    path = write_golden(_toy_trace(), str(tmp_path))
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(GoldenIntegrityError, match="declares 2 records"):
        read_golden("toy", str(tmp_path))


def test_golden_format_version_gate(tmp_path):
    path = write_golden(_toy_trace(), str(tmp_path))
    lines = open(path).read().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 999
    # Keep the record hash valid: only the header changes.
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(GoldenError, match="format_version"):
        read_golden("toy", str(tmp_path))


def test_goldens_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GOLDENS_DIR", str(tmp_path))
    path = write_golden(_toy_trace())  # no explicit directory
    assert os.path.dirname(path) == str(tmp_path)
    assert read_golden("toy").scenario == "toy"


# --------------------------------------------------------- compare_traces


def test_compare_traces_step_sequence_gate():
    a = _toy_trace()
    b = _toy_trace()
    b.records.pop()
    (m,) = compare_traces(a, b)
    assert m.path == "<steps>" and m.kind == "structure"


def test_compare_traces_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown comparison mode"):
        compare_traces(_toy_trace(), _toy_trace(), mode="fuzzy")


def test_compare_traces_tolerance_uses_golden_spec():
    golden, actual = _toy_trace(), _toy_trace()
    actual.records[0]["payload"]["loss"] = 0.55  # inside step/loss atol
    assert compare_traces(golden, actual, mode="exact") != []
    assert compare_traces(golden, actual, mode="tolerance") == []


# -------------------------------------------------------------- scenarios


def test_scenario_registry_shape():
    assert set(scenario_names()) == {"rmae_detect", "koopman_lqr",
                                     "starnet_monitor", "snn_flow",
                                     "federated_round",
                                     "control_adaptation",
                                     "scenario_sweep"}
    assert CHECKS == ("serial", "pooled", "cache", "quantized", "kernels")


def test_run_scenario_validates_name_and_variant():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario("not-a-scenario")
    with pytest.raises(ValueError, match="unknown variant"):
        run_scenario("koopman_lqr", variant="int4")


def test_run_scenario_is_deterministic():
    a = run_scenario("koopman_lqr")
    b = run_scenario_task("koopman_lqr")  # the pool-task wrapper
    assert a.content_sha256() == b.content_sha256()
    assert a.steps()[-1] == "telemetry"


def test_quantized_variant_drifts_within_declared_tolerances():
    base = run_scenario("koopman_lqr")
    quant = run_scenario_task(("koopman_lqr", "quantized"))
    assert compare_traces(base, quant, mode="exact") != []
    assert compare_traces(base, quant, mode="tolerance") == []


def test_scenario_traces_are_finite_json():
    trace = run_scenario("snn_flow")
    for line in trace.record_lines():
        payload = json.loads(line)  # round-trips
        assert "nan" not in line.lower() or not any(
            isinstance(v, float) and math.isnan(v)
            for v in payload.get("payload", {}).values())


# ------------------------------------------------------------- run_verify


def test_run_verify_validates_inputs(tmp_path):
    with pytest.raises(KeyError, match="unknown scenario"):
        run_verify(["bogus"], goldens_dir=str(tmp_path))
    with pytest.raises(KeyError, match="unknown check"):
        run_verify(["koopman_lqr"], goldens_dir=str(tmp_path),
                   skip=("turbo",))


def test_run_verify_missing_golden_fails_serial_check(tmp_path):
    report = run_verify(["koopman_lqr"], goldens_dir=str(tmp_path),
                        skip=("pooled", "cache", "quantized"))
    assert not report.ok
    (failure,) = report.failures()
    assert failure.check == "serial"
    assert "--update-goldens" in failure.detail


def test_run_verify_update_then_verify_round_trip(tmp_path):
    recorded = run_verify(["koopman_lqr"], update_goldens=True,
                          goldens_dir=str(tmp_path),
                          skip=("pooled", "cache"))
    assert recorded.ok and recorded.updated == ["koopman_lqr"]
    report = run_verify(["koopman_lqr"], goldens_dir=str(tmp_path),
                        skip=("pooled", "cache"))
    assert report.ok
    statuses = {(r.check, r.status) for r in report.results}
    assert statuses == {("serial", "pass"), ("pooled", "skip"),
                        ("cache", "skip"), ("quantized", "pass"),
                        ("kernels", "pass")}
    as_dict = report.as_dict()
    assert as_dict["ok"] is True and len(as_dict["results"]) == 5
    assert as_dict["kernel_backend"] in ("reference", "vectorized")
    assert "koopman_lqr" in report.render()


def test_run_verify_catches_injected_regression(tmp_path):
    """The harness's reason to exist: a drifted golden must fail loudly.

    Pinned to the reference kernel backend so the serial check compares
    bit-for-bit (under the vectorized backend it runs in tolerance mode
    and the exact comparison moves to the ``kernels`` check).
    """
    with kernel_backend("reference"):
        _injected_regression_body(tmp_path)


def _injected_regression_body(tmp_path):
    run_verify(["koopman_lqr"], update_goldens=True,
               goldens_dir=str(tmp_path), skip=("pooled", "cache",
                                                "quantized", "kernels"))
    golden = read_golden("koopman_lqr", str(tmp_path))
    drifted = Trace(scenario=golden.scenario,
                    records=json.loads(json.dumps(golden.records)),
                    tolerances=golden.tolerances)
    # Perturb one recorded scalar the way a real regression would —
    # the first float leaf outside a tensor summary (whose stats only
    # matter under tolerance; exact mode compares the content hash).
    def _bump_first_float(node):
        if isinstance(node, dict):
            if node.get("__tensor__"):
                return False
            for k in sorted(node):
                if isinstance(node[k], float):
                    node[k] += 1e-6
                    return True
                if _bump_first_float(node[k]):
                    return True
        elif isinstance(node, list):
            for i, v in enumerate(node):
                if isinstance(v, float):
                    node[i] += 1e-6
                    return True
                if _bump_first_float(v):
                    return True
        return False

    assert any(_bump_first_float(r["payload"]) for r in drifted.records)
    write_golden(drifted, str(tmp_path))  # re-hash: file is "valid"
    report = run_verify(["koopman_lqr"], goldens_dir=str(tmp_path),
                        skip=("pooled", "cache", "quantized", "kernels"))
    assert not report.ok
    (failure,) = report.failures()
    assert failure.check == "serial" and failure.mismatches
    assert failure.mismatches[0].kind == "value"
