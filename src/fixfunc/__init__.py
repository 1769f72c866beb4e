"""Fixed functions of pointwise self-maps, and a threshold-split dose optimizer."""

from .function_space import (
    AxiomReport,
    DiscreteFunction,
    Domain,
    DomainPoint,
    MetricKind,
    array_distance,
    check_metric_axioms,
    cross_sup_distance,
    distance,
    grid_l1_distance,
    uniform_distance,
)
from .operators import (
    AffineMap,
    AlphaFunction,
    CompositeMap,
    ConditionReport,
    LinearPsi,
    NamedMap,
    OperatorSpec,
    PolynomialMap,
    PsiSpec,
    TableAlpha,
    TablePsi,
    WindowAlpha,
    apply,
    check_alpha_admissible,
    check_alpha_psi_contractive,
    check_psi_family,
    check_reich_condition,
    estimate_contraction_constant,
)
from .iteration import (
    DIVERGENCE_LIMIT,
    AlphaPsiMode,
    BanachMode,
    FixedFunctionCheck,
    IterationConfig,
    IterationReport,
    ReichMode,
    alpha_psi_iterate,
    apriori_bound,
    check_hypothesis_H,
    iterate,
    picard_iterate,
    verify_fixed_function,
)
from .fmo import (
    FmoProblem,
    FmoReport,
    InnerParams,
    InnerResult,
    OuterParams,
    SparseDoseMatrix,
    VoxelLabels,
    dose_statistics,
    fmo_solve,
    inner_solve,
    read_matrix_csv,
    reference_solve,
    split_matrix,
    write_matrix_csv,
)
from .phantom import TRUNCATION_THRESHOLD, PhantomSpec, generate_phantom

__version__ = "0.1.0"
