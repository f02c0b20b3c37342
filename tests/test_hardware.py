"""Tests for the analytic hardware models (energy, latency, LiDAR physics)."""

import numpy as np
import pytest

from repro.hardware import (
    EnergyLedger,
    HardwareProfile,
    LidarPowerModel,
    mac_area_um2,
    mac_energy_pj,
    mac_latency_ns,
    model_inference_energy_mj,
)


# ----------------------------------------------------------------- energy
def test_mac_energy_monotone_in_bits():
    energies = [mac_energy_pj(b) for b in (2, 4, 8, 16, 32)]
    assert energies == sorted(energies)


def test_mac_energy_unknown_precision():
    with pytest.raises(ValueError):
        mac_energy_pj(12)


def test_model_inference_energy_scales_with_macs():
    small = model_inference_energy_mj(int(1e6), bits=8)
    big = model_inference_energy_mj(int(1e8), bits=8)
    assert big == pytest.approx(100 * small, rel=0.2)


def test_energy_ledger_additive():
    ledger = EnergyLedger()
    ledger.charge_sensing(1.0)
    ledger.charge_compute(2.0)
    ledger.charge_communication(0.5)
    ledger.charge_actuation(0.25)
    assert ledger.total_mj == pytest.approx(3.75)


def test_energy_ledger_rejects_negative():
    with pytest.raises(ValueError):
        EnergyLedger().charge_sensing(-1.0)


def test_energy_ledger_snapshot_delta_window():
    ledger = EnergyLedger()
    ledger.charge_sensing(1.0)
    since = ledger.snapshot()
    ledger.charge_sensing(0.5)
    ledger.charge_compute(2.0)
    delta = ledger.delta(since)
    assert delta["sensing_mj"] == pytest.approx(0.5)
    assert delta["compute_mj"] == pytest.approx(2.0)
    assert delta["communication_mj"] == pytest.approx(0.0)
    assert delta["total_mj"] == pytest.approx(2.5)
    # The snapshot is a plain copy: it does not track later charges.
    assert since["sensing_mj"] == pytest.approx(1.0)


def test_energy_ledger_delta_from_meters_is_the_snapshot_delta():
    """A meters() tuple (what trace spans read) and a snapshot() give
    the same delta, bit for bit."""
    ledger = EnergyLedger()
    ledger.charge_sensing(0.1)
    ledger.charge_compute(1.0 / 3.0)
    ledger.charge_actuation(7e-17)
    since, meters = ledger.snapshot(), ledger.meters()
    ledger.charge_sensing(0.2)
    ledger.charge_compute(2.0 / 7.0)
    ledger.charge_communication(1e-300)
    assert meters == tuple(since[k] for k in (
        "sensing_mj", "compute_mj", "communication_mj", "actuation_mj"))
    assert ledger.delta(meters) == ledger.delta(since)
    assert ledger.delta(meters)["total_mj"] != 0.0


def test_energy_ledger_delta_tolerates_foreign_snapshot():
    ledger = EnergyLedger(compute_mj=3.0)
    # Missing meters read as zero, so a partial/foreign snapshot still
    # yields a well-formed delta over this ledger's meters.
    delta = ledger.delta({"sensing_mj": 1.0})
    assert delta["compute_mj"] == pytest.approx(3.0)
    assert delta["sensing_mj"] == pytest.approx(-1.0)
    assert set(delta) == set(ledger.as_dict())


# ---------------------------------------------------------------- latency
def test_latency_and_area_monotone():
    lats = [mac_latency_ns(b) for b in (2, 4, 8, 16, 32)]
    areas = [mac_area_um2(b) for b in (2, 4, 8, 16, 32)]
    assert lats == sorted(lats)
    assert areas == sorted(areas)


def test_profile_validation():
    with pytest.raises(ValueError):
        HardwareProfile("bad", compute_gmacs_s=0, memory_mb=1,
                        energy_budget_mj=1)


def test_profile_latency_speedup_at_low_precision():
    p = HardwareProfile("dev", compute_gmacs_s=10, memory_mb=10,
                        energy_budget_mj=100)
    assert p.inference_latency_ms(int(1e7), 8) < p.inference_latency_ms(
        int(1e7), 32)


def test_profile_fits_model():
    p = HardwareProfile("dev", compute_gmacs_s=10, memory_mb=1.0,
                        energy_budget_mj=100)
    assert p.fits_model(200_000, weight_bits=32)       # 0.8 MB
    assert not p.fits_model(400_000, weight_bits=32)   # 1.6 MB
    assert p.fits_model(400_000, weight_bits=8)        # 0.4 MB


# ------------------------------------------------------------ lidar power
def test_pulse_energy_r4_scaling():
    model = LidarPowerModel(reference_pulse_uj=50.0, reference_range_m=100.0,
                            min_pulse_uj=0.0)
    e50 = model.pulse_energy_uj(50.0)
    assert e50 == pytest.approx(50.0 / 16.0)


def test_pulse_energy_capped_at_reference():
    model = LidarPowerModel(reference_pulse_uj=50.0, reference_range_m=100.0)
    assert model.pulse_energy_uj(400.0) == pytest.approx(50.0)


def test_pulse_energy_floor():
    model = LidarPowerModel(min_pulse_uj=0.5)
    assert model.pulse_energy_uj(0.1) == pytest.approx(0.5)


def test_pulse_energy_invalid_range():
    with pytest.raises(ValueError):
        LidarPowerModel().pulse_energy_uj(0.0)


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_non_positive_or_nan_range_is_rejected(bad):
    model = LidarPowerModel()
    with pytest.raises(ValueError, match="range must be positive"):
        model.pulse_energy_uj(bad)
    with pytest.raises(ValueError, match="range must be positive"):
        model.scan_energy_mj(np.array([10.0, bad]))
    with pytest.raises(ValueError, match="range must be positive"):
        model.mean_pulse_energy_uj(np.array([bad, 10.0]))


def test_scan_energy_adaptive_below_fixed():
    model = LidarPowerModel()
    ranges = np.linspace(5, 60, 100)
    assert model.scan_energy_mj(ranges, adaptive=True) < \
        model.scan_energy_mj(ranges, adaptive=False)
    # Array pricing is exactly the scalar pulse_energy_uj, floor and cap
    # included.
    ranges = np.concatenate([ranges, np.random.default_rng(0).uniform(
        0.05, 400.0, 2000), [np.inf, 1e9]])
    energies = np.array([model.pulse_energy_uj(r) for r in ranges])
    assert model.scan_energy_mj(ranges) == float(energies.sum() * 1e-3)
    assert model.mean_pulse_energy_uj(ranges) == float(energies.mean())
    # Only ratios between the knee (floor/ref)^(1/4) and 1 compute the
    # R^4 term; the prices on both sides of either band edge, at inf and
    # at 1e300, and under degenerate floors are still the scalar ones.
    for m in (model, LidarPowerModel(min_pulse_uj=0.0),
              LidarPowerModel(min_pulse_uj=50.0),
              LidarPowerModel(min_pulse_uj=80.0),
              LidarPowerModel(reference_pulse_uj=7.0, reference_range_m=33.0,
                              min_pulse_uj=1e-3)):
        edges = [m.reference_range_m]
        if m.min_pulse_uj > 0:
            edges.append(m.reference_range_m * (
                m.min_pulse_uj / m.reference_pulse_uj) ** 0.25)
        near = np.concatenate([e * (1.0 + np.linspace(-1e-8, 1e-8, 41))
                               for e in edges])
        ranges = np.concatenate([near, np.nextafter(edges, 0.0),
                                 np.nextafter(edges, np.inf),
                                 [np.inf, 1e300, 5e-324, 1e-3, 60.0]])
        with np.errstate(over="ignore"):  # the scalar R^4 of 1e300
            want = np.array([m.pulse_energy_uj(r) for r in ranges])
        got = m._pulse_energies_uj(ranges)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_scan_energy_empty():
    assert LidarPowerModel().scan_energy_mj(np.array([])) == 0.0


def test_table2_pulse_count_consistency():
    """72 mJ / 50 uJ = 1440 pulses, the paper's implied beam grid."""
    model = LidarPowerModel(reference_pulse_uj=50.0)
    ranges = np.full(1440, 60.0)
    full = model.scan_energy_mj(ranges, adaptive=False)
    assert full == pytest.approx(72.0)


# ------------------------------------------------------------ IMC crossbar
def test_imc_beats_digital_on_large_inference():
    from repro.hardware import compare_architectures
    out = compare_architectures(rows=512, cols=512, batch=1, bits=8)
    assert out["imc_advantage"] > 2.0


def test_imc_advantage_grows_with_spike_sparsity():
    from repro.hardware import compare_architectures
    dense = compare_architectures(256, 256, input_activity=1.0)
    sparse = compare_architectures(256, 256, input_activity=0.1)
    assert sparse["imc_advantage"] > dense["imc_advantage"]


def test_imc_validation():
    from repro.hardware import CrossbarModel, digital_mvm_energy_pj
    with pytest.raises(ValueError):
        digital_mvm_energy_pj(0, 10)
    with pytest.raises(ValueError):
        CrossbarModel().mvm_energy_pj(10, 10, input_activity=2.0)
