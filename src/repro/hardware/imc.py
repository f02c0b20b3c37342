"""In-memory / near-memory computing models (Sec. VI, Fig. 2).

The paper: neuromorphic algorithms "benefit from hardware acceleration
via in-memory (IMC) and near-memory (NMC) computing by efficiently
implementing synaptic functionality", working "alongside CPU/GPU
architectures".  The decisive physics: a von-Neumann MAC pays weight
*movement* (SRAM reads) on top of arithmetic, while a crossbar IMC
array keeps weights stationary and computes the dot product in place —
at the price of DAC/ADC conversion per activation/output.

:class:`CrossbarModel` prices a matrix-vector product on a crossbar;
:func:`compare_architectures` reproduces the standard IMC-vs-digital
crossover: IMC wins once weight-reuse is low (inference, batch 1) and
matrices are large enough to amortize the converters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .energy import MEMORY_ENERGY_PJ_PER_BYTE, mac_energy_pj

__all__ = ["CrossbarModel", "digital_mvm_energy_pj", "compare_architectures"]


def digital_mvm_energy_pj(rows: int, cols: int, bits: int = 8,
                          batch: int = 1) -> float:
    """Energy of a (rows x cols) matrix-vector product on a digital unit.

    Compute (MACs) + weight traffic: every weight is read from SRAM once
    per batch element.
    """
    if rows <= 0 or cols <= 0 or batch <= 0:
        raise ValueError("dimensions and batch must be positive")
    macs = rows * cols * batch
    compute = macs * mac_energy_pj(bits)
    weight_bytes = rows * cols * bits / 8.0
    traffic = weight_bytes * batch * MEMORY_ENERGY_PJ_PER_BYTE
    return compute + traffic


@dataclass(frozen=True)
class CrossbarModel:
    """Analytic energy model of a resistive/SRAM crossbar MVM.

    Per input activation: one DAC conversion and one wordline drive; the
    analog dot product itself is nearly free (Ohm's law + Kirchhoff sums
    across the stationary conductances); per output column: one ADC
    conversion.  Constants follow published 45-65 nm IMC macros.
    """

    dac_pj: float = 0.3        # per input conversion
    adc_pj: float = 5.0        # per output conversion (dominant cost)
    wordline_pj: float = 0.05  # per row activation
    array_mac_fj: float = 1.0  # in-array analog MAC, femtojoules
    max_rows: int = 256        # physical array tile bound
    max_cols: int = 256
    # Partial sums from every row-tile must each be converted and added
    # digitally, so ADC cost scales with the row-tile count.

    def mvm_energy_pj(self, rows: int, cols: int, batch: int = 1,
                      input_activity: float = 1.0) -> float:
        """Energy of ``batch`` MVMs; ``input_activity`` is the fraction
        of nonzero inputs (spiking inputs drive only active rows)."""
        if not 0.0 <= input_activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        tiles_c = -(-cols // self.max_cols)
        tiles_r = -(-rows // self.max_rows)
        per_vec = (rows * input_activity * (self.dac_pj + self.wordline_pj)
                   * tiles_c
                   + cols * self.adc_pj * tiles_r
                   + rows * cols * input_activity * self.array_mac_fj * 1e-3)
        return per_vec * batch


def compare_architectures(rows: int, cols: int, batch: int = 1,
                          bits: int = 8, input_activity: float = 1.0,
                          crossbar: Optional[CrossbarModel] = None
                          ) -> Dict[str, float]:
    """Energy of one workload on digital vs IMC, plus the ratio.

    Returns ``{"digital_pj", "imc_pj", "imc_advantage"}`` where the
    advantage is digital / IMC (>1 means IMC wins).
    """
    crossbar = crossbar or CrossbarModel()
    digital = digital_mvm_energy_pj(rows, cols, bits=bits, batch=batch)
    imc = crossbar.mvm_energy_pj(rows, cols, batch=batch,
                                 input_activity=input_activity)
    return {"digital_pj": digital, "imc_pj": imc,
            "imc_advantage": digital / imc if imc > 0 else float("inf")}
