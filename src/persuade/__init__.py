"""Workbench for multi-sender persuasion games.

Exact posterior/utility evaluation, exact and learned equilibrium
finding, hardness-reduction instance builders, and scenario generators.
"""

__version__ = "0.1.0"

from .game import (
    CapError,
    FixedMap,
    GameInstance,
    Lexicographic,
    Posterior,
    SenderFavoring,
    ex_ante_utilities,
    ex_ante_utilities_batch,
    ex_ante_utilities_fixed_interpretation,
    induced_action_map,
    joint_signals,
    posterior,
    validate_joint_policy,
    validate_policy,
)
from .lp import LpFailure, LpResult, LpStack, solve_lp, solve_lps
from .equilibria import (
    BestResponseResult,
    EquilibriumReport,
    PreconditionError,
    RevelationCertificate,
    best_response_exact,
    best_response_fixed_interpretation,
    full_revelation_profile,
    local_ne_verify,
    verify_nash,
)
from .reductions import (
    BimatrixGame,
    PublicPersuasionInstance,
    ReductionParams,
    bimatrix_to_persuasion,
    pub_sender_utility,
    public_to_best_response,
)
from .neural import (
    DeluParams,
    DnlParams,
    Gradients,
    MlpParams,
    backward,
    forward,
    forward_with_pattern,
    load_params,
    save_params,
    stack_params,
    unstack_params,
)
from .learning import (
    EgConfig,
    PipelineResult,
    TrainConfig,
    UtilityDataset,
    extragradient,
    find_local_ne,
    sample_dataset,
    train,
)
from .scenarios import (
    SyntheticSpec,
    product_ads_instance,
    quality_ads_instance,
    ride_hailing_instance,
    synthetic_instance,
)
from .reference import didactic_game, two_block_equilibrium_policies, two_block_game
