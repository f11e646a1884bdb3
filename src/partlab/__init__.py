"""Exact counting of restricted partitions and verification of their bounds.

The library models residue-class part sets (all positive integers lying in
chosen residue classes mod m), counts their partitions exactly with
mutually independent engines, and checks every relevant identity and
inequality numerically: the tail-set log bound pi*sqrt(2n|R|/3m), its
classical m=1 specialization, the head/tail convolution identity, the
double-counting recurrence, the weighted-series closed form, and the
pointwise kernel bounds behind the proof, including the counterexample
showing why the full odd-part set resists the same pointwise treatment.
"""

from .bounds import (
    EPS_LOG,
    BoundParams,
    BoundReport,
    asymptotic_ratio,
    check_erdos,
    check_nathanson_chain,
    check_rplus_poly_bound,
    check_theorem1,
    erdos_rhs,
    log_of_count,
    theorem1_rhs,
)
from .counting import (
    ORACLE_CEILING_DEFAULT,
    BigCount,
    ConvolutionReport,
    CountTable,
    IntegrityError,
    TableFactory,
    check_eq4,
    convolution_check_range,
    count_bruteforce,
    count_dp,
    count_recurrence,
    eq4_rhs_all,
    eq4_rhs_direct,
)
from .partset import (
    A_PLUS,
    FULL_A,
    R_PLUS,
    ResidueSpec,
    SpecError,
    make_residue_spec,
    parts_up_to,
)
from .series import (
    EPS_ONE_SIDED,
    SeriesCheckReport,
    SeriesPoint,
    TruncationResult,
    check_derivative_nonpositive,
    check_eq1,
    check_eq2_pointwise,
    check_eq3,
    check_sinh_inequality,
    check_sqrt_inequality,
    closed_form_exp_arg,
    default_t_grid,
    default_x_grid,
    find_counterexample_odd_remark,
    lhs_series_truncated,
    rhs_closed_form,
    series_sum_adaptive,
)
from .sweeps import (
    CHECK_NAMES,
    CheckSummary,
    SweepConfig,
    VerifyResult,
    oracle_equivalence_rows,
    run_verify,
    subsets_for_modulus,
    sweep_rows,
    table_rows,
)

__version__ = "0.1.0"
