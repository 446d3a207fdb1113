"""Exact BSDE and reflected-BSDE laboratory on finite scenario trees.

Solvers run backward induction on uniformly branching trees whose filtration
can jump at announced instants, so every conditional expectation is a finite
sum and every identity can be checked to round-off.
"""

from .bsde import (
    AffineGenerator,
    BsdeInstance,
    Generator,
    SolutionDifference,
    SolutionQuadruple,
    check_lipschitz,
    solution_diff,
    solve_bsde,
    solve_linear_bsde,
)
from .errors import (
    ClassificationError,
    DepthCapError,
    GeneratorContractError,
    InvariantViolationError,
    MeasureChangeError,
    NotAMartingaleError,
    OffGridError,
    PicardDivergenceError,
    SchemaError,
    StepSizeError,
    TreeBsdeError,
    TreeSizeError,
)
from .ladder import LadderReport, overshoot_slack, run_counterexample, tv_scaling
from .martingales import (
    MeasureChange,
    MertensDecomposition,
    RepresentationPair,
    check_strong_supermartingale,
    doob_decompose,
    exhaust_jumps,
    girsanov_change,
    mertens_decompose,
    meyer_bound_check,
    represent_martingale,
)
from .norms import (
    bracket,
    burkholder_constant,
    burkholder_constant_alt,
    meyer_c_prime,
    meyer_constant,
    meyer_constant_ladlag,
    norm_h,
    norm_h1,
    norm_i,
    norm_m,
    norm_m_composite,
    norm_sp,
    norm_sp_weighted,
    phi_p,
    power_sum_bounds,
    young_bound,
)
from .processes import AdaptedProcess, LadlagProcess, PredictableProcess, stochastic_integral
from .reflected import (
    PicardTrace,
    ReflectedInstance,
    StoppingRule,
    check_skorokhod,
    picard_alpha,
    picard_solve,
    snell_bruteforce,
    snell_dynamic_program,
    solve_reflected,
    truncate_instance,
    verify_snell_representation,
)
from .reports import EstimateReport
from .tree import (
    Reveal,
    ScenarioTree,
    TimeGrid,
    build_tree,
    deserialize_tree,
    serialize_tree,
    validate_tree,
)

__version__ = "0.1.0"
