"""Lundberg-type upper bounds on ruin probabilities for non-homogeneous
discrete-time risk models, with adjustment-coefficient solvers and a seeded
Monte Carlo verifier."""

from .adjustment import (
    AdjustmentResult,
    WindowCheck,
    solve_kappa,
    solve_partial_sum,
    solve_per_increment,
    solve_period_root,
    verify_window_exponent,
)
from .bounds import (
    BoundResult,
    Certificate,
    bound_at_h,
    bound_kappa,
    bound_optimize,
    bound_per_increment,
    bound_periodic,
    bound_union,
)
from .distributions import (
    INF,
    CompoundIncrement,
    Degenerate,
    FiniteDiscrete,
    IncrementDistribution,
    Normal,
    Scaled,
    ShiftedExponential,
    TwoPoint,
    Uniform,
    has_atom_at,
    log_mgf,
    log_mgf_at,
    mean,
    mgf_domain,
    mgf_domain_sup,
    sample,
    support_bounds,
)
from .models import (
    ConstantRates,
    EventModel,
    ExplicitPrefix,
    ExplicitRates,
    IndexedNormal,
    IndexedTwoPoint,
    ModelIndexError,
    PeriodHypothesisError,
    Periodic,
    PeriodicRates,
    PrefixThenTail,
    QuasiPeriodicScaled,
    RiskModel,
    Search,
    SupLogMgf,
    TruncationPolicy,
    cumulative_log_mgf,
    iid_base,
    per_increment_sup,
    reduce_event_model,
    sup_log_mgf,
)
from .montecarlo import (
    BATCH,
    DominanceReport,
    DominanceRow,
    MaximalInequalityReport,
    OrderingReport,
    PathRealization,
    SimConfig,
    SimResult,
    check_bound_dominance,
    check_discount_ordering,
    check_maximal_inequality,
    clopper_pearson,
    realize_path,
    simulate_ruin,
    simulate_ruin_grid,
)
from .serialize import ConfigError, dump_model, load_model, model_from_dict, model_to_dict

__version__ = "0.1.0"
