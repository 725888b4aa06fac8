"""Quantum estimation bounds for qubit state tomography.

A numpy toolkit for the question "how efficient is plain tomography?":
SLD Fisher information of small parametric state models, the minimum of the
weighted inverse-Fisher trace over qubit POVMs with the random measurement
attaining it, the special weight that makes tomography optimal, mutually
unbiased bases for dimensions up to 5, and a reproducible Monte Carlo
comparison of tomography against adaptive maximum-likelihood estimation.
"""

from .linalg import (
    HermitianEig,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    SingularStateError,
    hermitian_eig,
    hermitize,
    psd_sqrt,
    sld_residual,
    solve_sld,
)
from .states import (
    ID2,
    PAULIS,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    ModelDerivatives,
    NotPositiveError,
    NotStateError,
    OutOfBallError,
    bures_distance,
    model_qfi,
    mub_derivatives,
    mub_partials,
    mub_state,
    qubit_bures,
    qubit_qfi,
    qubit_slds,
    qubit_state,
)
from .measurements import (
    BadDistributionError,
    DimMismatchError,
    InvalidPovmError,
    MubFamily,
    Povm,
    UnsupportedDimensionError,
    mub_bases,
    mub_tomography_povm,
    outcome_distribution,
    pvm_from_observable,
    qubit_tomography_povm,
    randomize,
)
from .bounds import (
    ROT_WEIGHTS,
    OptimalSolution,
    RotWeight,
    SingularInputError,
    SingularOutcomeError,
    UnsupportedDimError,
    anisotropy,
    c_opt_closed,
    c_tomo_closed,
    classical_fisher,
    gm_lower_bound,
    hat_fisher,
    indicatrix_points,
    min_trace_unit_trace,
    mub_tomography_sweep,
    optimal_measurement,
    qcr_min_trace,
    qfi_rot_weight,
    resolve_weight,
    rot_merit_sweep,
    rot_weight_along,
    tomo_excess,
    tomography_fisher,
    tomography_weight,
    weight_from_fisher,
)
from .simulate import (
    McSummary,
    RunConfig,
    TrialRecord,
    adaptive_run,
    checkpoint_schedule,
    clamp_to_ball,
    mle_maximize,
    monte_carlo,
    theoretical_merits,
    tomography_estimate,
)

__version__ = "0.1.0"
