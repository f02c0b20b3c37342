"""``repro.koopman`` — RoboKoop: spectral Koopman control (Sec. IV).

The spectral operator and its contrastive visual encoder, latent LQR,
the Fig. 5 dynamics families (:func:`fig5a_macs` prices them, and
:func:`run_disturbance_experiment` is the one Fig. 5b protocol), and
the recursive and conformal uncertainty models that drive
action-to-sensing.
"""

from .agent import (
    DISTURBANCE_PS,
    RoboKoopAgent,
    collect_transitions,
    evaluate_controller,
    make_controller,
    mpc_action,
    rollout_controller,
    run_disturbance_experiment,
)
from .baselines import (
    MODEL_FAMILIES,
    MPC_HORIZON,
    MPC_SAMPLES,
    DenseKoopmanDynamics,
    DynamicsModel,
    MLPDynamics,
    RecurrentDynamics,
    SpectralKoopmanDynamics,
    build_model,
    fig5a_macs,
    fit_dynamics_model,
)
from .encoder import ContrastiveKoopmanEncoder
from .lqr import LQRController, finite_horizon_lqr, infinite_horizon_lqr, riccati_recursion
from .spectral import SpectralKoopmanOperator
from .timevarying import RecursiveKoopman
from .uncertainty import ConformalPredictor, uncertainty_to_coverage

__all__ = [
    "SpectralKoopmanOperator",
    "riccati_recursion", "finite_horizon_lqr", "infinite_horizon_lqr",
    "LQRController",
    "DynamicsModel", "MLPDynamics", "DenseKoopmanDynamics",
    "RecurrentDynamics", "SpectralKoopmanDynamics",
    "build_model", "fit_dynamics_model", "fig5a_macs", "MODEL_FAMILIES", "MPC_SAMPLES",
    "MPC_HORIZON",
    "ContrastiveKoopmanEncoder",
    "RoboKoopAgent", "collect_transitions", "evaluate_controller",
    "make_controller", "mpc_action", "rollout_controller",
    "run_disturbance_experiment", "DISTURBANCE_PS",
    "RecursiveKoopman", "ConformalPredictor", "uncertainty_to_coverage",
]
