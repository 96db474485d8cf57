"""moelab: a numerical laboratory for top-K sparse softmax gated mixtures of
experts — maximum-likelihood fitting by EM, Voronoi parameter losses, and
convergence-rate experiments on synthetic data."""

from .errors import (
    AssumptionError,
    DegenerateDataError,
    InsufficientDataError,
    InvalidArgumentError,
    MoeError,
    UnsupportedValueError,
)
from .model import (
    FAMILIES,
    GAUSSIAN,
    LAPLACE,
    STUDENT_T,
    Dataset,
    ExpertParams,
    GateParams,
    MixingMeasure,
    conditional_log_density,
    gate_log_weights,
    log_joint,
    measure_from_text,
    measure_to_text,
    sample_dataset,
    true_measure,
    uniform_box_sampler,
    unit_box,
)
from .partition import (
    RegionSpec,
    enumerate_regions,
    partition_match_rate,
    positive_mass_subsets,
    region_mass,
    region_of,
)
from .metrics import (
    LossReport,
    VoronoiAssignment,
    assign_voronoi,
    default_y_grid,
    expected_hellinger,
    hellinger_pointwise,
    loss_d1,
    loss_d2,
    loss_d3,
    two_gaussian_hellinger,
    voronoi_loss,
)
from .polysys import (
    PolyCandidate,
    PolySystemInstance,
    constructive_witness_m2,
    enumerate_equations,
    max_abs_residual,
    rbar,
    rbar_fn,
    residual,
    search_nontrivial,
)
from .em import (
    FitConfig,
    FitResult,
    InitSpec,
    e_step,
    fit,
    init_measure,
    m_step_experts,
    m_step_gating,
    mean_log_likelihood,
    random_cell_plan,
)
from .experiments import (
    LossSpec,
    SweepConfig,
    SweepResult,
    SweepRow,
    emit_csv,
    emit_svg_loglog,
    fit_slope,
    parse_csv,
    parse_sweep_config,
    run_sweep,
)

__version__ = "0.1.0"
