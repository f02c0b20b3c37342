"""Analytic energy models for compute, memory, and sensing.

Table II of the paper is analytic accounting (pulse energy x pulse count,
FLOPs x energy/FLOP), as is Fig. 11's energy axis (MAC energy scaled by
precision).  This module centralizes those models so every subsystem uses
the same constants.

Energy constants follow the widely used 45 nm estimates (Horowitz, ISSCC
2014): a 32-bit float MAC costs ~4.6 pJ, and multiplier energy scales
roughly quadratically with operand width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "MAC_ENERGY_PJ",
    "MEMORY_ENERGY_PJ_PER_BYTE",
    "mac_energy_pj",
    "memory_energy_pj",
    "model_inference_energy_mj",
    "EnergyLedger",
]

# Energy per multiply-accumulate at each operand precision, picojoules.
# 32-bit entry = float32 FMA (3.7 pJ mult + 0.9 pJ add); narrower entries
# follow integer-multiplier scaling (~quadratic in width) plus add energy.
MAC_ENERGY_PJ: Dict[int, float] = {
    32: 4.6,
    16: 1.7,
    8: 0.45,
    4: 0.13,
    2: 0.05,
}

# SRAM access energy per byte (on-chip buffer, 45 nm class).
MEMORY_ENERGY_PJ_PER_BYTE = 2.5


def mac_energy_pj(bits: int = 32) -> float:
    """Energy of one MAC at the given operand precision, in pJ."""
    if bits not in MAC_ENERGY_PJ:
        raise ValueError(f"no energy model for {bits}-bit MACs")
    return MAC_ENERGY_PJ[bits]


def memory_energy_pj(num_bytes: float) -> float:
    """Energy to move ``num_bytes`` through SRAM, in pJ."""
    return num_bytes * MEMORY_ENERGY_PJ_PER_BYTE


def model_inference_energy_mj(macs: int, bits: int = 32,
                              params: int = 0,
                              weight_bits: Optional[int] = None) -> float:
    """Total inference energy in millijoules: compute + weight traffic.

    ``macs`` at ``bits`` precision, plus one read of every parameter at
    ``weight_bits`` (defaults to ``bits``) through SRAM.
    """
    wb = bits if weight_bits is None else weight_bits
    compute_pj = macs * mac_energy_pj(bits)
    traffic_pj = memory_energy_pj(params * wb / 8.0)
    return (compute_pj + traffic_pj) * 1e-9


@dataclass
class EnergyLedger:
    """Additive energy bookkeeping for a sensing-to-action loop.

    Every component charges its consumption to one of the named meters;
    benchmark harnesses read the totals.  All values in millijoules.
    """

    sensing_mj: float = 0.0
    compute_mj: float = 0.0
    communication_mj: float = 0.0
    actuation_mj: float = 0.0

    def charge_sensing(self, mj: float) -> None:
        self._check(mj)
        self.sensing_mj += mj

    def charge_compute(self, mj: float) -> None:
        self._check(mj)
        self.compute_mj += mj

    def charge_communication(self, mj: float) -> None:
        self._check(mj)
        self.communication_mj += mj

    def charge_actuation(self, mj: float) -> None:
        self._check(mj)
        self.actuation_mj += mj

    @staticmethod
    def _check(mj: float) -> None:
        if mj < 0:
            raise ValueError("energy charges must be non-negative")

    @property
    def total_mj(self) -> float:
        return (self.sensing_mj + self.compute_mj
                + self.communication_mj + self.actuation_mj)

    def as_dict(self) -> Dict[str, float]:
        s, c, m, a = (self.sensing_mj, self.compute_mj,
                      self.communication_mj, self.actuation_mj)
        return {"sensing_mj": s, "compute_mj": c, "communication_mj": m,
                "actuation_mj": a, "total_mj": s + c + m + a}

    # -------------------------------------------------- windowed readings
    def meters(self) -> Tuple[float, float, float, float]:
        """Sensing, compute, communication and actuation meters, as a
        tuple: the cheapest point-in-time reading.

        :meth:`delta` takes it in place of a :meth:`snapshot`, with the
        same result bit for bit; trace spans read the ledger this way.
        """
        return (self.sensing_mj, self.compute_mj, self.communication_mj,
                self.actuation_mj)

    def snapshot(self) -> Dict[str, float]:
        """Point-in-time copy of every meter (including the total).

        Pair with :meth:`delta` for windowed readings: take a snapshot
        at the window start and ask the ledger for the delta later.
        """
        return self.as_dict()

    def delta(self, since: Union[Dict[str, float],
                                 Tuple[float, float, float, float]]
              ) -> Dict[str, float]:
        """Per-meter consumption since a :meth:`snapshot` (or a
        :meth:`meters` reading).

        Meters absent from a snapshot ``since`` are treated as starting
        at zero, so a snapshot taken from an older/foreign ledger still
        yields a well-formed delta over this ledger's meters.
        """
        # Spelled out: every ledger-metered trace span calls this.
        s, c, m, a = (self.sensing_mj, self.compute_mj,
                      self.communication_mj, self.actuation_mj)
        if isinstance(since, tuple):
            s0, c0, m0, a0 = since
            return {"sensing_mj": s - s0, "compute_mj": c - c0,
                    "communication_mj": m - m0, "actuation_mj": a - a0,
                    "total_mj": s + c + m + a - (s0 + c0 + m0 + a0)}
        get = since.get
        return {"sensing_mj": s - float(get("sensing_mj", 0.0)),
                "compute_mj": c - float(get("compute_mj", 0.0)),
                "communication_mj": m - float(get("communication_mj", 0.0)),
                "actuation_mj": a - float(get("actuation_mj", 0.0)),
                "total_mj": s + c + m + a - float(get("total_mj", 0.0))}
