"""Tests for the CLI and the context-threshold extension."""

import json

import numpy as np
import pytest

from repro.cli import DEMOS, main
from repro.starnet import ContextAwareThreshold


# -------------------------------------------------------------------- CLI
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "quickstart" in out
    assert "table2" in out


def test_cli_experiment_fig5a(capsys):
    assert main(["bench", "fig5a_model_macs"]) == 0
    payload = json.loads(capsys.readouterr().out)["fig5a_model_macs"]
    assert payload["spectral_koopman"]["total"] < payload["mlp"]["total"]


def test_cli_experiment_swarm(capsys):
    assert main(["bench", "multiagent_energy"]) == 0
    payload = json.loads(capsys.readouterr().out)["multiagent_energy"]
    assert payload["uncoordinated"]["energy_mj"] > \
        payload["coordinated"]["energy_mj"]


def test_cli_experiment_speculative(capsys):
    assert main(["bench", "speculative_decoding"]) == 0
    payload = json.loads(capsys.readouterr().out)["speculative_decoding"]
    assert payload["4"]["speedup"] > 1.0


def test_cli_no_command_shows_help(capsys):
    assert main([]) == 1


def test_cli_registries_complete():
    assert len(DEMOS) == 7


# ------------------------------------------------- context-aware threshold
def _context_data(seed=0, n=300):
    """Nominal scores whose scale depends on a context variable."""
    rng = np.random.default_rng(seed)
    contexts = rng.uniform(0, 1, size=n)
    scores = (1.0 + 4.0 * contexts) * rng.gamma(2.0, 0.5, size=n)
    return contexts, scores


def test_context_threshold_controls_fpr():
    contexts, scores = _context_data()
    model = ContextAwareThreshold(n_buckets=3, quantile=0.95).fit(
        contexts, scores)
    c2, s2 = _context_data(seed=1)
    fpr = model.false_positive_rate(c2, s2)
    assert abs(fpr - 0.05) < 0.05


def test_context_threshold_beats_global_on_skewed_contexts():
    """Per-context thresholds detect low-context anomalies a global
    95th-percentile threshold hides."""
    contexts, scores = _context_data(seed=2)
    model = ContextAwareThreshold(n_buckets=3).fit(contexts, scores)
    global_thr = float(np.quantile(scores, 0.95))
    # An anomaly in a quiet context: moderate absolute score.
    quiet_context, anomaly_score = 0.05, global_thr * 0.6
    assert anomaly_score < global_thr            # global misses it
    assert model.is_anomalous(quiet_context, anomaly_score)


def test_context_threshold_monotone_buckets():
    contexts, scores = _context_data(seed=3)
    model = ContextAwareThreshold(n_buckets=3).fit(contexts, scores)
    assert model.threshold(0.05) < model.threshold(0.95)


def test_context_threshold_validation():
    with pytest.raises(ValueError):
        ContextAwareThreshold(n_buckets=0)
    with pytest.raises(ValueError):
        ContextAwareThreshold(quantile=0.4)
    model = ContextAwareThreshold()
    with pytest.raises(RuntimeError):
        model.threshold(0.5)
    with pytest.raises(ValueError):
        model.fit([1.0], [1.0])
