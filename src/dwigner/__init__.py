"""Deformed Wigner ensembles: simulation, spectra and exact path counting."""

from .ensembles import (
    EnsembleConfig,
    EntryLaw,
    MatrixSample,
    Regime,
    RegimeError,
    SymmetryClass,
    regime_of,
    sample_batch,
    sample_deformed,
    sample_wigner,
)
from .spectral import (
    EigensolverError,
    Spectrum,
    eigenvalues,
    interlacing_check,
    outlier_census,
    rescaled_fluctuation,
    trace_power,
    trace_power_dense,
)
from .path_model import (
    ClosedPath,
    Trajectory,
    classify_instants,
    count_trajectories,
    enumerate_trajectories,
    last_step_split,
    trajectory_of,
)
from .correspondence import (
    CorrespondenceResult,
    from_marked_origin,
    glue_paths,
    k_statistic,
    preimage_bound_check,
    to_marked_origin,
    trajectory_surgery,
    verify_count_identity,
)
from .dyck_stats import (
    DyckDecomposition,
    ballot_count,
    bounded_path_count,
    class_count_bound_check,
    dyck_decompose,
    max_level_distribution,
    tail_bound_check,
)
from .moment_oracle import (
    MomentModel,
    asymptotic_predictions,
    edge_moment,
    exact_trace_expectation,
    symbolic_trace_expectation,
    trace_universality_probe,
)
from .experiments import (
    ExperimentConfig,
    KSResult,
    gaussian_cdf,
    ks_statistic,
    run_combinatorics_verify,
    run_fluctuations,
    run_oracle_compare,
    run_spectrum_census,
    run_trace_growth,
    semicircle_cdf,
)

__version__ = "0.1.0"
