"""Fig. 5a — computational load (MACs) of dynamical models.

The paper shows the spectral Koopman approach requiring the fewest
multiply-accumulate operations for control and prediction among MLP,
dense-Koopman, Transformer, and recurrent dynamics models.  MACs are
analytic (architecture-derived), evaluated at a shared latent dimension
since every model consumes the same visual encoder's embedding.

Claims (all blocking): the paper's ordering — spectral Koopman
cheapest, Transformer dearest, dense Koopman below the MLP, recurrent
below the Transformer — and the headline gap (spectral Koopman over
1000x cheaper than the MLP) hold on every run; the MAC ordering matches
the committed one, and every total is bit-exact.
"""

from typing import List

from repro.koopman import fig5a_macs
from repro.runtime.bench import Claim, check

from bench_utils import assert_claims, print_table, save_result


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    return fig5a_macs(latent_dim=16, action_dim=1)


def claims(payload: dict, baseline: dict) -> List[Claim]:
    order = sorted(payload, key=lambda k: payload[k]["total"])
    order_base = sorted(baseline, key=lambda k: baseline[k]["total"])
    totals = {k: v["total"] for k, v in payload.items()}
    # The counts are analytic: they must be bit-exact.
    drift = sorted(k for k in baseline if k in payload
                   and payload[k]["total"] != baseline[k]["total"])
    return [
        Claim("mac-ordering", order == order_base, True,
              " < ".join(order)),
        Claim("spectral-wins", order[0] == "spectral_koopman", True,
              f"cheapest model: {order[0]}"),
        # The paper's fixed ordering, whatever baseline is committed.
        Claim("transformer-most-expensive", order[-1] == "transformer",
              True, f"dearest model: {order[-1]}"),
        Claim("dense-koopman-below-mlp",
              totals["dense_koopman"] < totals["mlp"], True,
              f"dense_koopman {totals['dense_koopman']} vs mlp "
              f"{totals['mlp']}"),
        Claim("recurrent-below-transformer",
              totals["recurrent"] < totals["transformer"], True,
              f"recurrent {totals['recurrent']} vs transformer "
              f"{totals['transformer']}"),
        # The headline gap: orders of magnitude between the spectral
        # core and the sampled-MPC nonlinear families.
        Claim("spectral-1000x-below-mlp",
              totals["spectral_koopman"] * 1000 < totals["mlp"], True,
              f"spectral_koopman {totals['spectral_koopman']} x 1000 vs "
              f"mlp {totals['mlp']}"),
        Claim("analytic-macs-exact", not drift, True,
              "all totals match baseline" if not drift
              else f"totals drifted for {drift}"),
    ]


def test_fig5a_model_macs(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("fig5a_model_macs", result)
    order = sorted(result, key=lambda k: result[k]["total"])
    print_table(
        "Fig. 5a — MACs for control + prediction per step "
        "(paper: spectral Koopman fewest, Transformer most)",
        ["Model", "Prediction MACs", "Control MACs", "Total"],
        [[name, result[name]["prediction"], result[name]["control"],
          result[name]["total"]] for name in order])
    save_result("fig5a_model_macs", result)
    assert_claims(verdict)
