"""Exact intersection cohomology of complete polyhedral fans.

The package computes, entirely in exact arithmetic over Q or a real quadratic
field, the graded dimensions (h-vector) of the intersection cohomology space
attached to a complete fan, together with the structures that make those
dimensions meaningful: the Poincare pairing, Lefschetz operators given by a
strictly convex conewise linear function, and the associated quadratic forms.
"""

from .exactlin import (Scalar, ScalarField, Matrix, sc, parse_scalar,
                       format_scalar)
from .fans import (Cone, Fan, PLFunction, build_fan, fan_from_json_dict,
                   face_fan_with_support, normal_fan, product_fan,
                   barycentric_subdivision, is_complete, is_strictly_convex)
from .conewise import Polynomial
from .ihsheaf import (DistinguishedPair, EvaluationContext, GradedIH,
                      build_distinguished_pair, pair_to_json_dict,
                      pair_from_json_dict)
from .cohomology import (QuadraticReport, ds_check, evaluate_fast,
                         hl_rank_report, hrm_check, kunneth_check,
                         lefschetz_matrix, pairing_matrix, profile_for_fan,
                         toric_h_of_fan)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "ScalarField", "Matrix", "sc", "parse_scalar",
    "format_scalar",
    "Cone", "Fan", "PLFunction", "build_fan", "fan_from_json_dict",
    "face_fan_with_support", "normal_fan", "product_fan",
    "barycentric_subdivision", "is_complete", "is_strictly_convex",
    "Polynomial",
    "DistinguishedPair", "GradedIH", "build_distinguished_pair",
    "pair_to_json_dict", "pair_from_json_dict",
    "EvaluationContext", "QuadraticReport", "ds_check",
    "evaluate_fast", "hl_rank_report", "hrm_check",
    "kunneth_check", "lefschetz_matrix", "pairing_matrix",
    "profile_for_fan", "toric_h_of_fan",
    "__version__",
]
