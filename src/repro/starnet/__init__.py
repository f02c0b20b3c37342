"""``repro.starnet`` — sensor trustworthiness monitoring (Sec. V)."""

from .adaptive_fusion import ContextAwareThreshold
from .evaluation import (
    AUCExperimentConfig,
    corruption_scores,
    generate_scans,
    run_auc_experiment,
)
from .features import LidarFeatureExtractor, scan_statistics
from .fusion import GatedFilter, filter_backscatter, run_recovery_experiment
from .likelihood_regret import (
    likelihood_regret_exact,
    likelihood_regret_spsa,
    per_sample_elbo,
    reconstruction_error_score,
)
from .lora import LoRAFineTuner
from .monitor import STARNet
from .temporal import DriftDetector

__all__ = [
    "per_sample_elbo", "likelihood_regret_spsa", "likelihood_regret_exact",
    "reconstruction_error_score",
    "LidarFeatureExtractor", "scan_statistics",
    "STARNet",
    "AUCExperimentConfig", "generate_scans", "corruption_scores",
    "run_auc_experiment",
    "LoRAFineTuner",
    "GatedFilter", "filter_backscatter", "run_recovery_experiment",
    "DriftDetector", "ContextAwareThreshold",
]
