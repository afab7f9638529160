"""Path-dependent Hamilton-Jacobi / differential-game numerics at desk scale."""

from .errors import (
    AuditError,
    ConfigurationError,
    ContractError,
    DomainError,
    EvaluationError,
    LatticeCoverageError,
    ParameterError,
    PdhjError,
    SolverError,
    UsageError,
)
from .evolution import (
    AuditReport,
    OperatorSpec,
    SolveReport,
    audit_hypotheses,
    build_p_laplacian,
    make_linear_operator,
    sample_reachable_set,
    solve_delay_evolution,
)
from .game import (
    ControlGrid,
    FeedbackPlay,
    FeedbackStrategy,
    GameSpec,
    GuaranteeEstimate,
    HamiltonianEval,
    StateLattice,
    ValueTable,
    audit_hamiltonian_lipschitz,
    dp_value,
    dp_values,
    extremal_shift_strategy,
    hamiltonian,
    play_feedback_games,
)
from .minimax import (
    ResidualReport,
    StabilityReport,
    ViscosityReport,
    stability_experiment,
)
from .pathcore import Path, StateSpace, TimeGrid, kappa_constant
from .upsilon import ChainRuleReport, LyapunovParams, verify_chain_rule

__version__ = "0.1.0"
