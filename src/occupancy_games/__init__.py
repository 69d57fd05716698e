"""Occupancy-state planning and verification for finite-horizon POSGs."""

from .errors import (
    CapExceededError,
    CertificateError,
    InconsistentOccupancyError,
    ModelValidationError,
    OccupancyGamesError,
    PosgParseError,
    UndefinedDecisionRuleError,
    UnknownSuiteError,
    UnreachableHistoryError,
)
from .model import (
    PosgModel,
    classify,
    parse_posg,
    reinterpret_criterion,
)
from .occupancy import (
    Mixture,
    OccupancyState,
    PrivateOccupancyState,
    decompose,
    expected_reward,
    initial_occupancy,
    occupancy_to_csv,
    private_occupancy,
    private_reward,
    private_step,
    recombine,
    step,
)
from .policies import (
    BehavioralPolicy,
    DecisionRule,
    JointHistory,
    JointPolicy,
    PolicyMixture,
    PolicyTree,
    PrivateHistory,
    decision_at,
    enumerate_pure_policies,
    policy_from_json,
    policy_to_json,
)
from .evaluate import (
    SimResult,
    evaluate_occupancy,
    simulate,
)
from .solve import (
    BestResponse,
    Equilibrium,
    best_response_history,
    best_response_private,
    solve_dec,
    solve_stackelberg,
    solve_zero_sum,
)
from .verify import (
    PropertyReport,
    check_lipschitz,
    check_master_structure,
    check_slave_structure,
    check_sufficiency_master,
    check_sufficiency_private,
    lipschitz_constant,
    run_suite,
)

__version__ = "0.1.0"
