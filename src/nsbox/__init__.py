"""Two-party correlation tables, extremal counterfactual couplings, and
macroscopic signalling simulations, together with the variance-bound chain
that pins the maximal CHSH value compatible with causality in the classical
limit."""

from .boxes import (
    A,
    A_PRIME,
    AliceSetting,
    CorrelationTable,
    Locality,
    chsh,
    chsh_variants,
    classify_locality,
)
from .causality import (
    TSIRELSON_BOUND,
    CausalityCheck,
    FrontierReport,
    VarianceBudget,
    VectorAdditionModel,
    budget_from_table,
    causality_condition,
    critical_c_scalar,
    frontier_scan,
    tsirelson_check,
    variance_lower_bound_a,
    variance_lower_bound_ap,
    vector_addition_model,
)
from .coupling import (
    Combination,
    CouplingBounds,
    CouplingObjective,
    CouplingValidation,
    TripleCoupling,
    coupling_bounds,
    coupling_to_json,
    extremal_coupling,
    make_scalar_extremal_couplings,
    per_pair_variance,
    pr_limit_couplings,
    validate_coupling,
)
from .macro import (
    BatchArrays,
    NoiseModel,
    Strategy,
    batch_lattice,
    parallelogram_residuals,
    sample_batches,
    write_batches_csv,
)
from .signalling import (
    Detector,
    ProtocolConfig,
    SignallingReport,
    SweepRow,
    Verdict,
    advantage_ceiling,
    batch_law,
    couplings_for_table,
    exact_tv_distance,
    make_likelihood_detector,
    optimal_advantage,
    resource_sweep,
    run_protocol,
    wilson_interval,
    write_sweep_csv,
)

__version__ = "0.1.0"
