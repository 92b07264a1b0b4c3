"""Simulator and numerical verification suite for classically verified
quantum money built on hidden-matching retrieval games."""

from .matchings import DisjointMatchingSet, Matching, build_disjoint_set, validate
from .qrg import (
    BitString,
    DensityMatrix,
    PureState,
    averaged_error_probability,
    averaged_povm,
    error_probability_given_matching,
    fidelity,
    hidden_matching_state,
)
from .bounds import (
    BlockDiagonal,
    CloneBound,
    ClonePair,
    build_q_matrix,
    depolarization_for_error,
    e_max,
    e_min,
    fidelity_bound,
    lossy_e_min,
    operator_norm,
    pair_average,
    pair_error_lower_bound,
    symmetric_clone,
)
from .protocol import (
    BankDatabase,
    CheckResult,
    Coin,
    HonestChannel,
    Verdict,
    VerdictParameters,
    VerificationTranscript,
    VerifyOutcome,
    bank_check,
    bank_mint,
    holder_verify,
    honest_fail_bound,
    lossy_fail_bounds,
    plan_parameters,
)
from .adversary import (
    AttackStrategy,
    ForgeOutcome,
    builtin_strategy,
    forge_coins,
    loss_hiding_weight_check,
    run_forging_experiment,
)
from .coherent import (
    BlockSource,
    PhotonStats,
    coherent_pipeline,
    effective_adversary_error,
    fold_source_loss,
    photon_statistics,
    single_photon_state_equivalence,
)
from .service import BankClient, BankService, client_verify

__version__ = "0.1.0"
