"""
flockbench: simulation and benchmarking of multi-agent flocking controllers.

Six controllers (a rule-based model, a potential-based model, and four
receding-horizon MPC models over lattice-deviation or cohesion/separation
costs), four per-configuration performance measures, an additive-Gaussian
sensing-noise model, and a fully seeded experiment harness with CSV and SVG
output.
"""

from .controllers import (
    OlfatiSaberParams,
    ReynoldsParams,
    olfati_saber_accel,
    olfati_saber_accel_all,
    reynolds_accel,
    reynolds_accel_all,
    reynolds_alignment,
    reynolds_cohesion,
    reynolds_separation,
)
from .core import (
    FlockConfiguration,
    MotionLimits,
    NoiseSpec,
    ProximityNet,
    RandomStream,
    is_quasi_alpha_lattice,
    mix_seed,
    neighbors,
    proximity_net,
    sense_global,
    sense_local,
    sense_local_all,
    step_dynamics,
)
from .harness import (
    MODEL_TAGS,
    ExperimentConfig,
    ModelSpec,
    RunRecord,
    default_model_spec,
    noise_for_level,
    run_comparison,
    run_noise_sweep,
    sample_initial_config,
    simulate,
)
from .metrics import (
    MetricsRecord,
    connected_components,
    evaluate_metrics,
    evaluate_metrics_block,
    irregularity,
    max_component_diameter,
    velocity_convergence,
)
from .mpc import (
    MPC_TAGS,
    MpcParams,
    SolveResult,
    SolverError,
    cost_df_centralized,
    cost_df_distributed,
    lattice_deviation_centralized,
    lattice_deviation_distributed,
    mpc_objective,
    mpc_objective_gradient,
    rollout_centralized,
    rollout_distributed,
    solve_mpc,
    solve_mpc_distributed_all,
)

__version__ = "0.1.0"
