"""Schubert unions in Grassmannians G(l,m).

Combinatorics of the Pluecker-index grid (order ideals, duality, the l=2
power-set encodings), point counts over F_q, maximal unions per spanning
dimension, and Grassmann / Schubert-union codes with their higher weights.
"""

from .duality import (
    ReciprocityViolation,
    dual_point_count,
    dual_union,
    dual_union_explicit,
    rev,
)
from .gf import Field
from .grassgrid import (
    DEFAULT_IDEAL_GUARD,
    GrassParams,
    NotDownwardClosed,
    Poly,
    SchubertUnion,
    TooLarge,
    canonicalize,
    cell_dimension,
    enumerate_ideals,
    full_grid,
    gaussian_binomial,
    grand_total,
    grid_to_partition,
    partition_to_grid,
    partition_weight,
    point_leq,
)
from .optimizer import (
    BoundRow,
    BoundTable,
    admissible,
    best_union,
    bound_table,
    exhaustive_bound_table,
    krull_C,
    krull_dK,
    left_candidate,
    right_candidate,
    threshold_report,
)
from .pluecker import (
    DEFAULT_POINT_GUARD,
    GeneratorMatrix,
    enumerate_points,
    generator_matrix,
    pluecker_vector,
)
from .twodim import (
    EmptyUnion,
    MSet,
    NotTwoDim,
    SigmaSeq,
    dual_sigma,
    mset_complement,
    mset_to_union,
    sigma_to_union,
    union_to_mset,
    union_to_sigma,
)
from .weights import (
    DEFAULT_ORACLE_BUDGET,
    BudgetExceeded,
    WeightRecord,
    d5_c25,
    delta_table,
    min_weight_bruteforce,
    nogin_weights,
    oracle_dr,
    top_weights,
    union_code_params,
    weight_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
