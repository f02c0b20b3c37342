"""Sec. V — LoRA on-device adaptation of the STARNet VAE.

"Low-Rank Adaptation (LoRA) enables efficient on-device fine-tuning by
constraining updates to a low-dimensional subspace while preserving core
model weights for fast adaptation."

Scenario: the nominal feature distribution drifts (a new operating
regime — weather season, sensor aging).  An unadapted monitor starts
flagging the *new normal* as anomalous (false positives); LoRA adapts the
VAE to the drifted distribution updating only a small fraction of the
weights, restoring the false-positive rate while true anomalies stay
detectable.
"""

import numpy as np

from repro.nn import VAE, train_vae
from repro.starnet import LoRAFineTuner
from repro.starnet.likelihood_regret import reconstruction_error_score

from bench_utils import print_table, save_result


def _score_quantile_threshold(vae, data, q=0.95):
    scores = [reconstruction_error_score(vae, x) for x in data]
    return float(np.quantile(scores, q))


def _fpr(vae, data, threshold):
    scores = [reconstruction_error_score(vae, x) for x in data]
    return float(np.mean(np.asarray(scores) > threshold))


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    rng = np.random.default_rng(0)
    dim = 12
    base = rng.normal(size=(400, dim)) * 0.5
    vae = VAE(input_dim=dim, latent_dim=4, rng=np.random.default_rng(1))
    train_vae(vae, base[:300], epochs=35, rng=np.random.default_rng(2))
    threshold = _score_quantile_threshold(vae, base[300:])

    # A regime shift: the nominal distribution translates and rescales.
    shift = rng.normal(size=dim) * 1.2
    drifted = base * 0.8 + shift
    anomalies = drifted + rng.normal(size=drifted.shape) * 4.0

    fpr_before = _fpr(vae, drifted[300:], threshold)
    tpr_before = _fpr(vae, anomalies[300:], threshold)

    tuner = LoRAFineTuner(vae, rank=4, rng=np.random.default_rng(3))
    tuner.adapt(drifted[:300], steps=200,
                rng=np.random.default_rng(4))
    # Recalibrate the operating threshold on (a slice of) the new normal.
    threshold_after = _score_quantile_threshold(vae, drifted[:300])
    fpr_after = _fpr(vae, drifted[300:], threshold_after)
    tpr_after = _fpr(vae, anomalies[300:], threshold_after)

    return {
        "trainable_fraction": tuner.trainable_fraction,
        "before": {"fpr_on_new_normal": fpr_before,
                   "tpr_on_anomalies": tpr_before},
        "after": {"fpr_on_new_normal": fpr_after,
                  "tpr_on_anomalies": tpr_after},
    }


def test_lora_adaptation(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    b, a = result["before"], result["after"]
    print_table(
        "LoRA on-device adaptation after distribution drift "
        f"(rank-4 factors = {100 * result['trainable_fraction']:.1f}% of "
        "weights updated)",
        ["Monitor", "FPR on new normal", "TPR on true anomalies"],
        [["unadapted", f"{b['fpr_on_new_normal']:.2f}",
          f"{b['tpr_on_anomalies']:.2f}"],
         ["LoRA-adapted", f"{a['fpr_on_new_normal']:.2f}",
          f"{a['tpr_on_anomalies']:.2f}"]])
    save_result("lora_adaptation", result)

    # Drift makes the unadapted monitor useless (everything anomalous).
    assert b["fpr_on_new_normal"] > 0.5
    # LoRA restores a sane operating point ...
    assert a["fpr_on_new_normal"] < 0.2
    # ... while true anomalies remain detectable.
    assert a["tpr_on_anomalies"] > 0.6
    # And only a fraction of the parameters moved.
    assert result["trainable_fraction"] < 0.8
