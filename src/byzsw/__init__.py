"""Distributed source coding with Byzantine sensors.

Simulator for the decoder-driven variable-rate polling protocol and both
fixed-rate schemes, the converse-achieving adversary strategies, and
numerical evaluation of the achievable-rate characterizations.
"""

from .prob_core import (
    ConditionalPMF,
    EmpiricalType,
    JointPMF,
    SubsetView,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    eta_ball_contains,
    identity_channel,
    marginal,
    marginalize_info_channel,
    type_of,
)
from .source_model import (
    derive_seed,
    keyed_draws,
    sample_block,
    sample_blocks,
    sample_side_infos,
)
from .binning import (
    BinningCodebook,
    EnumerationGuardError,
    fixed_rate_encode,
)
from .rate_region import (
    HonestCollection,
    InfoModel,
    MaxEntropyResult,
    RegionReport,
    closed_form_t,
    fixed_rate_region_contains,
    max_entropy_with_marginals,
    q_set_feasible,
    r_star_general,
    r_star_perfect,
    sw_region_contains,
)
from .adversary import (
    BlackHole,
    FakeDistribution,
    FixedRateAmbiguity,
    HonestPassthrough,
    TraitorContext,
    TraitorStrategy,
    fabricate_block,
    fixed_rate_ambiguity_attack,
    optimal_fake_conditional,
)
from .variable_rate import (
    ProtocolParams,
    SessionReport,
    run_round,
    run_session,
    transcript_lines,
    update_V,
)
from .fixed_rate import (
    EstimateTable,
    FixedRateCode,
    decode_all,
    encode_all,
    run_fixed_rate_trial,
)
from .scenario import (
    PRESETS,
    Scenario,
    canonical_dumps,
    load_scenario,
    preset_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"
