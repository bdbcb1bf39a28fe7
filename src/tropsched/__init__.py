"""Max-plus linear algebra and a two-stage minimax scheduling solver."""

from .binomial import (
    BinomialTable,
    binomial_power_sum,
    binomial_trace_sum,
    build_table,
    weighted_trace_terms,
)
from .blockstar import SkewBlock, assemble, skew_star, skew_trace
from .errors import (
    DimensionMismatch,
    GridTooLarge,
    InternalConsistency,
    InvalidInstance,
    InverseOfZero,
    NotAVector,
    NotColumnRegular,
    NotRegularVector,
    NotSquare,
    ParameterOutOfBox,
    ParseError,
    StageOneInfeasible,
    StageTwoInfeasible,
    StarDiverges,
    TropicalError,
    ZeroMatrix,
    ZeroToNonpositivePower,
)
from .inequality import BoxSolutionSet, solve_double_inequality, solve_upper_bound
from .linalg import (
    TropMatrix,
    conjugate,
    is_column_regular,
    is_regular,
    kleene_star,
    mat_add,
    mat_mul,
    mat_pow,
    scalar_mul,
    spectral_radius,
    spectral_radius_via_traces,
    trace,
    trace_function,
)
from .oracle import (
    GridSearchResult,
    grid_search_stage1,
    grid_search_stage2,
    naive_binomial,
    naive_star,
)
from .scheduler import (
    DerivedMatrices,
    ProblemInstance,
    ScheduleSolution,
    SolveReport,
    StageOneResult,
    StageTwoResult,
    check_stage1_feasibility,
    check_stage2_feasibility,
    compute_eta,
    compute_mu,
    derive_matrices,
    eta_term_families,
    extreme_points,
    materialize,
    mu_term_families,
    solution_set,
    solve,
    solve_stage1,
    stage1_solution_check,
    stage2_solution_check,
)
from .semiring import UNIT, ZERO, TropValue, t_add, t_inv, t_join, t_mul, t_pow

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
