"""superdelta: an exact symbolic engine for graded differential operators,
odd Laplacians, density pencils, and higher derived brackets."""

__version__ = "0.1.0"

from .gralg import (
    Chart,
    ChartMismatch,
    DensityElement,
    DomainError,
    GradedPoly,
    KeyLayoutError,
    ParityError,
    berezin_integral,
    partial,
    residue_pair,
    substitute,
)
from .diffop import (
    DiffOp,
    ad_mult,
    commutator,
    compose,
    conjugate_by_exp,
    formal_adjoint,
    op_from_action,
    specialize,
)
from .geom import (
    BracketDataError,
    CoordMap,
    CoordMapError,
    VBracketData,
    act_on_w_densities,
    canonical_pencil,
    classify_square,
    extract_vbracket,
    hamiltonian_vf,
    jacobi_report,
    lb_data,
    lie_derivative,
    master_discrepancy,
    odd_laplacian,
    pencil_bracket,
    poisson_bracket,
    recover_action,
    transform_op,
)
from .brackets import (
    LInftyReport,
    higher_bracket,
    jacobiator,
    koszul_sign,
    linfty_check,
    square_bracket,
)
from .dsl import DslError, load_module, parse_element, render
