"""Energy accounting for ANN / SNN / hybrid inference (Sec. VI).

The standard neuromorphic energy model (Roy et al., Nature 2019): an ANN
pays a full multiply-accumulate per synaptic connection per inference;
an SNN pays an *accumulate-only* operation per synaptic connection *per
spike* — no multiply, because spikes are binary.  Energy per op (45 nm):

* E_MAC = 4.6 pJ (32-bit multiply-accumulate)
* E_AC  = 0.9 pJ (32-bit accumulate)

So ``E_SNN = SynOps * E_AC`` with ``SynOps = sum_t MACs * rate_t`` — the
input spike rate is the sparsity dividend event-driven processing earns.
"""

from __future__ import annotations

__all__ = ["E_MAC_PJ", "E_AC_PJ", "ann_energy_pj", "snn_energy_pj"]

E_MAC_PJ = 4.6  # multiply-accumulate (float32, 45 nm)
E_AC_PJ = 0.9   # accumulate only (what a binary spike costs)


def ann_energy_pj(macs: int) -> float:
    """Energy of a clock-driven dense inference."""
    if macs < 0:
        raise ValueError("MAC count cannot be negative")
    return macs * E_MAC_PJ


def snn_energy_pj(macs_per_timestep: int, timesteps: int,
                  mean_spike_rate: float) -> float:
    """Energy of an event-driven spiking inference.

    ``mean_spike_rate`` is the average input activity in [0, 1]; only
    active synaptic events cost an accumulate.
    """
    if macs_per_timestep < 0 or timesteps < 0:
        raise ValueError("op counts cannot be negative")
    if not 0.0 <= mean_spike_rate:
        raise ValueError("spike rate cannot be negative")
    synops = macs_per_timestep * timesteps * mean_spike_rate
    return synops * E_AC_PJ
