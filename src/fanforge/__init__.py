"""Exact rational computations on polyhedral fans.

Primitive collections and relations, nef and Mori cone descriptions,
quasi-projectivity certificates, and generic-weight simplicial refinements,
all over exact rational arithmetic (no floating point anywhere).
"""

from .cones import (
    HCone,
    VCone,
    cone_contains,
    cones_equal,
    dual_cone,
    h_to_v,
    v_to_h,
)
from .fan import (
    Fan,
    FanError,
    OutsideSupport,
    contained_in_single_cone,
    fan_from_json,
    fan_to_json,
    interior_walls,
    minimal_cone_containing,
    validate_fan,
)
from .mori import curve_class, extremal_walls, mori_cone, wall_relation
from .plfun import (
    PLBasis,
    PLFunction,
    coarse_membership,
    is_convex,
    is_quasi_projective,
    is_strictly_convex,
    pl_basis,
    pl_from_cone_functionals,
    pl_from_ray_values,
)
from .primcoll import (
    batyrev_primitive_collections,
    classify_type,
    enumerate_primitive_collections,
    primitive_inequality_cone,
    primitive_relation,
)
from .refine import (
    Refinement,
    interior_dual_point,
    qp_refinement,
    simplicial_refinement,
    supported_refinement,
    weighted_subdivision,
)
from .theorems import (
    TheoremReport,
    check_main_theorem,
    check_extremal_primitive,
    check_reid_conditions,
    check_type_a_description,
    run_paper_suite,
    verify_certificates,
)

__version__ = "0.1.0"
