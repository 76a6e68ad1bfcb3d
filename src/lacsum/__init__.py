"""Rectangular partial sums of multiple Fourier series at desk scale.

Lacunary index families, log-product convergence weights, weighted maximal
sweeps over finite index spaces, and the exact summation identities that
back them, with a CLI for convergence and maximal-ratio experiments.
"""

__version__ = "0.1.0"

from .errors import AliasingError, DegenerateInputError, LacsumError
from .lattice import (
    JkIndexSpace,
    LacunaryFamily,
    SampleJk,
    enumerate_jk_indices,
    make_lacunary,
    make_lacunary_covering,
)
from .spectral import (
    GridFunction,
    ShellTensor,
    Spectrum,
    TorusGrid,
    analyze,
    grid_l2,
    partial_sum,
    restrict,
    split_lacunary_blocks,
    synthesize,
)
from .weyl import (
    WeylWeight,
    check_weyl_conditions,
    full_product_weight,
    min_pair_weight,
    product_weight,
    unit_weight,
    weighted_energy,
)
from .maximal import (
    MaximalReport,
    gather_max,
    level_set_measure,
    sweep_space,
    weak_type_table,
    weighted_maximal,
)
from .seqcalc import (
    AbelCheck,
    abel_identity_check,
    difference,
    dyadic_square_anchor,
    telescope_split,
)
from .decomp import (
    DecompositionResult,
    apply_pair_weight,
    coefficient_transfer,
    decompose_free_pair,
    min_log_inverse,
)
from .suites import (
    ExperimentConfig,
    Report,
    emit_report,
    gen_test_function,
    run_convergence_suite,
    run_identity_suite,
    run_maximal_suite,
)
