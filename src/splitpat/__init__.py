"""Split-pattern avoidance for permutations.

Decides containment and avoidance of the split patterns 3|12 and 23|1 with
respect to a position, counts the avoidance classes exactly by brute force
and by closed form, and verifies the generating-function identities relating
the counts to modified Bessel series, coefficient by coefficient over exact
rationals.
"""

from .counting import (
    CountTable,
    DEFAULT_SEARCH_LIMIT,
    RecursionReport,
    SearchLimitError,
    avoider_count,
    avoider_count_by_peeling,
    binomial,
    brute_count,
    build_count_table,
    check_excess_recursion,
    enumerate_avoiders,
    falling_factorial,
    max_left_avoider_count,
    normalized_excess,
    partition_by_smallest_right,
)
from .perms import (
    PATTERN_23_1,
    PATTERN_3_12,
    BadInputError,
    PatternWitness,
    Permutation,
    SplitPattern,
    contains_split,
    format_permutation,
    identity,
    insert_max,
    is_avoider,
    is_fiber_bundle,
    parse_permutation,
    rank_function,
    remove_max,
    rotate180,
    split_witnesses,
)
from .series import (
    BivariateSeries,
    Check,
    IdentityReport,
    bessel_i0_series,
    binomial_egf_series,
    count_egf,
    diagonal_collapse,
    divide_by_unit,
    excess_ogf,
    exp_sum_series,
    geometric_series,
    integrate_xy,
    integrated_binomial_egf,
    one_minus_x_minus_y_plus_xy,
    partial_xy,
    verify_identities,
)

__version__ = "0.1.0"
