"""LiDAR link-budget and pulse-energy physics (Sec. III).

The paper's radial masking is motivated by two physical facts it cites:

* **R^4 energy scaling** — the received echo power of a diffuse target
  falls as 1/R^2 for illumination and 1/R^2 again for collection, so the
  transmit pulse energy needed to hold SNR at range ``R`` grows as R^4.
* **Diffraction-limited angular precision** — improving angular resolution
  Δθ requires a larger aperture ``D`` or shorter wavelength ``λ``
  (Δθ ≈ 1.22 λ / D), both constrained by form factor and eye safety.

R-MAE attacks the energy side without touching the optics: mask distant
voxels more aggressively because they are the expensive ones to sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LidarPowerModel"]


@dataclass
class LidarPowerModel:
    """Pulse-energy model with R^4 range scaling.

    Parameters
    ----------
    reference_pulse_uj:
        Pulse energy needed to reach ``reference_range_m`` at the target
        SNR.  Conventional automotive LiDAR fires every pulse at the
        energy for maximum range: 50 µJ in Table II.
    reference_range_m:
        Range achieved by the reference pulse.
    min_pulse_uj:
        Floor below which pulses cannot be throttled (laser driver limit).
    """

    reference_pulse_uj: float = 50.0
    reference_range_m: float = 120.0
    min_pulse_uj: float = 0.5

    def pulse_energy_uj(self, target_range_m: float) -> float:
        """Pulse energy required to hold SNR at ``target_range_m`` (R^4)."""
        if not target_range_m > 0:  # also rejects NaN
            raise ValueError("range must be positive")
        scaled = self.reference_pulse_uj * (
            target_range_m / self.reference_range_m) ** 4
        return float(max(self.min_pulse_uj,
                         min(scaled, self.reference_pulse_uj)))

    def scan_energy_mj(self, ranges_m: np.ndarray,
                       adaptive: bool = True) -> float:
        """Total sensing energy for one scan over the fired ranges.

        ``adaptive=False`` models a conventional scanner that fires every
        pulse at full (max-range) energy; ``adaptive=True`` models a
        range-aware transmitter that throttles each pulse to the distance
        it actually needs to cover (what the radial masking enables, since
        masked-far pulses are simply not fired).
        """
        ranges_m = np.asarray(ranges_m, dtype=np.float64)
        if ranges_m.size == 0:
            return 0.0
        if not adaptive:
            return float(ranges_m.size * self.reference_pulse_uj * 1e-3)
        return float(self._pulse_energies_uj(ranges_m).sum() * 1e-3)

    def mean_pulse_energy_uj(self, ranges_m: np.ndarray) -> float:
        """Average adaptive per-pulse energy over the fired ranges."""
        ranges_m = np.asarray(ranges_m, dtype=np.float64)
        if ranges_m.size == 0:
            return 0.0
        return float(self._pulse_energies_uj(ranges_m).mean())

    def _pulse_energies_uj(self, ranges_m: np.ndarray) -> np.ndarray:
        """:meth:`pulse_energy_uj` of every range, as one array.

        Bit-for-bit the scalar method's values.  Range ratios below the
        knee ``(min_pulse_uj / reference_pulse_uj) ** 0.25`` (less a 1e-9
        relative margin, far wider than the rounding of the R^4 term)
        price at the floor, so only ratios from the knee up are priced
        range by range, as the scalar method prices them: the R^4 term
        is Python's float ``**`` (libm ``pow``), since numpy's array
        power can differ in the last ulp.  Ratios at or past 1 are
        priced as 1, whose R^4 term is exactly 1: the clamps then give
        the scalar method's cap.
        """
        ranges_m = np.asarray(ranges_m, dtype=np.float64).ravel()
        if ranges_m.size and not ranges_m.min() > 0:  # also rejects NaN
            raise ValueError("range must be positive")
        ref, floor = self.reference_pulse_uj, self.min_pulse_uj
        if floor <= 0:
            knee = 0.0
        elif floor < ref:
            knee = (floor / ref) ** 0.25 * (1.0 - 1e-9)
        else:
            knee = 1.0
        ratios = ranges_m / self.reference_range_m
        # Array methods, not the np.full/np.flatnonzero wrappers: this
        # runs once per scan, on a cold cache, inside the live loop.
        energies = np.empty_like(ratios)
        energies.fill(floor)
        priced = (ratios >= knee).nonzero()[0]
        if priced.size:
            q = np.minimum(ratios[priced], 1.0).tolist()
            scaled = ref * np.array([r ** 4 for r in q])
            energies[priced] = np.maximum(floor, np.minimum(scaled, ref))
        return energies
