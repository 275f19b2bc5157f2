"""MPC stack for electron-beam orbit stabilization.

Offline design (modal weights, DARE terminal cost, delayed-measurement
observer gain, setpoint folding), an online fast-gradient QP solver with
exact amplitude/slew-rate projections and a deterministic parallel
gradient engine, and a closed-loop simulator with a modal baseline
controller and integrated-motion spectra.
"""

from .bundle import DesignBundle, design_controller, load_bundle, run_checks, save_bundle
from .design import (
    IterationBoundParams,
    PartitionedGain,
    TerminalCost,
    Weights,
    condition_number,
    design_weights_imc_matched,
    design_weights_saturated,
    imc_gain,
    iteration_bound,
    kalman_gain,
    lqr_gain_modal,
    setpoint_matrix,
    solve_dare,
    solve_dare_modal,
)
from .errors import ConfigError, DimensionError, InfeasibleError, NumericalError, OrbitMpcError
from .fgm import (
    WorkerPlan,
    Workspace,
    converged_iterations,
    gradient_step,
    gradient_step_parallel,
    make_worker_plan,
    solve,
)
from .model import (
    ModalBasis,
    PlantConfig,
    StateSpace,
    build_state_space,
    load_plant_config,
    modal_decompose,
    save_plant_config,
    synthetic_plant,
)
from .observer import ModalRecord, ObserverState, modal_record, update_fast, update_naive
from .qp import (
    CondensedQP,
    ConstraintSet,
    build_condensed,
    default_delta,
    project_stage_n1,
    project_stage_n2,
    spectral_bounds,
    update_constraint_set,
)
from .sim import DisturbanceSpec, ImcController, MpcController, SimTrace, disturbance, ibm, ibm_at, simulate

__version__ = "0.1.0"
