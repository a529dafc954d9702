"""Exact spanning-tree and spanning-forest generating functions on
self-similar triangle graphs, with four mutually checking computation
routes: combinatorial recursion, closed-form products, weighted Laplacian
cofactors and Schur-complement decimation."""

from .algebra import (
    DEFAULT_SEED,
    FactoredPoly,
    TriPoly,
    Weights,
    poly_equal_by_sampling,
)
from .errors import CapabilityError, DecimationSingularError
from .graphs import (
    LabelledEdge,
    LabelledGraph,
    apply_generator,
    build_hanoi,
    build_sierpinski,
    export_dot,
    graph_census,
)
from .hanoi import (
    hanoi_bundle,
    hanoi_counts_closed,
    hanoi_counts_recursive,
    hanoi_step,
)
from .kirchhoff import (
    Decimation,
    SchurState,
    decimation_run,
    lambda_matrix,
    schur_map,
    schur_map_divergence,
    schur_pipeline,
    tree_gf_cofactor,
)
from .oracle import ForestSpec, enumerate_gf
from .sierpinski import (
    CountsTriple,
    FiveBundle,
    RotBundle,
    dir_bundle,
    dir_closed,
    dir_closed_value,
    dir_step,
    five_initial,
    rot_bundle,
    rot_closed,
    rot_counts,
    rot_initial,
    rot_step,
    schreier_bundle,
    schreier_closed,
    schreier_closed_value,
    schreier_step,
)
from .stats import (
    LabelStat,
    label_mean_gf,
    label_moments,
    label_stat_closed,
    label_variance_gf,
    normality_gap,
)

__version__ = "0.1.0"
