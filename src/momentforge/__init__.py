"""momentforge: moment-matched ReLU pushforwards of the standard Gaussian.

Build the discrete moment-matching rule, lay it out as a sum of bumps, evolve
the heights along the moment-preserving flow, compile to a one-hidden-layer
ReLU network, lift to the hidden-direction generator, and verify the
statistical separation/indistinguishability properties at desk scale.
"""

from .bumps import (
    Bump,
    BumpInstance,
    bump_eval,
    bump_law,
    bump_moment,
    bump_moment_deps,
    bump_moment_dh,
    instance_eval,
    instance_pushforward_moment,
    layout,
)
from .distributions import (
    HiddenDirectionDist,
    PushforwardDist,
    sample_null,
)
from .errors import (
    ConditioningBreakdown,
    MomentForgeError,
    NumericGuardError,
    QuadratureError,
    SeriesTruncationError,
    SupportCollisionError,
    ValidationError,
)
from .flow import (
    EvolutionTrace,
    FlowSystem,
    SlopeTarget,
    build_system,
    evolve,
    flow_direction,
    moment_vector,
    vandermonde_sigma_check,
)
from .gaussian import (
    QuadratureRule,
    ReducedRule,
    gaussian_density,
    gaussian_quantile,
    hermite_rule,
    reduce_rule,
)
from .network import (
    LiftedNetwork,
    ReluNetwork1D,
    ReluUnit,
    compile_instance,
    lift,
)
from .sq import (
    MonomialQuery,
    NullTarget,
    PlantedTarget,
    ProjectionQuery,
    SqOracle,
    run_distinguisher,
    stat_query,
)
from .verify import (
    VerificationReport,
    VerifyConfig,
    chi_squared_vs_gaussian,
    distance_to_support,
    pairwise_correlation,
    tv_hidden_pair,
    verify_instance,
    w1_empirical,
    w1_instances,
)

__version__ = "0.1.0"
