"""Exact-arithmetic workbench for Lefschetz properties of A(m, 2).

Builds the weighted complete intersections A(m, 2) from their dual socle
polynomials, reads strong-Lefschetz / Hodge-Riemann verdicts off exact
higher-Hessian determinants, and re-derives every determinant through
subdiagonal NE lattice-path systems, cross-validating the two routes.
"""

from .exact import ExactMatrix, binomial
from .hilbert import (
    HilbertFunction,
    flo,
    flo_star,
    hilbert_m2_closed,
    hilbert_series,
    is_unimodal,
    scan_unimodality,
    socle_degree,
)
from .algebra import (
    GradedPoly,
    annihilator_check,
    c_coeff,
    contract,
    dual_generator,
    dual_numerator,
    f_m,
    hessian,
    verify_f_recursion,
    verify_power_sum,
)
from .lattice import (
    LatticePath,
    PathSystem,
    VertexSets,
    check_dvd_theorem,
    count_paths,
    enumerate_paths,
    enumerate_systems,
    flip,
    involution_phi,
    path_matrix,
    vertex_sets,
)
from .catalan import (
    TruncatedSeries,
    catalan_number,
    catalan_power,
    catalan_power_reciprocal,
    check_identity_zero,
)
from .lefschetz import (
    DegreeVerdict,
    PropertyReport,
    degree_verdict,
    property_report,
    signature_crosscheck,
)
from .partitions import (
    degree_formula,
    degree_formula_matches_hessian,
    enumerate_restricted,
    gf_matches_hilbert,
    partition_gf,
)

__version__ = "0.1.0"
