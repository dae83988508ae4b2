"""Numerics for level-2 rough paths (2 <= p < 3).

Capabilities, one module each:

- ``tensor_algebra``: exact arithmetic in the step-2 tensor group.
- ``rough_paths``: lifts, p-variation, Chen/geometricity defects, the
  geometric-plus-area-drift decomposition, Brownian and pure-area drivers.
- ``sewing``: the sewing operator for almost-multiplicative maps and the
  Young integral.
- ``vector_fields``: fields with one controlled derivative and the derived
  second-order field that multiplies areas.
- ``partial_rough_paths``: cross-iterated integrals, their p-variation
  distance and pushforwards.
- ``rde_solver``: second-order stepping, blow-up detection, partition rule
  and a-priori bounds, growth-envelope checks.
- ``log_sphere_map``: the change of variable that turns linear-growth
  fields into bounded fields on a cylinder (their gradients need not be).
- ``cli``: the ``rde`` experiment runner.
"""

from .tensor_algebra import (GroupElement2, antisym_part, hom_norm, identity,
                             increment, inv, mul)
from .rough_paths import (AreaDrift, RoughPath, beta_path, brownian_lift,
                          chen_defect, decompose, dilate, geometricity_defect,
                          lift_piecewise_linear, pure_area_path, pvar_norm,
                          read_polyline_csv, read_roughpath_csv, recompose,
                          write_roughpath_csv)
from .sewing import (AlmostRoughPath, SewingConvergenceError, SewResult,
                     YoungConditionError, sew, young_integral)
from .vector_fields import (FieldBounds, SecondOrderField, VectorField,
                            counterexample_field, f_dot_grad_f, linear_field,
                            make_field, tanh_field, zero_field)
from .partial_rough_paths import (PartialRoughPath, SmoothMap, pushforward,
                                  pvar_distance)
from .rde_solver import (BlowupRecord, FieldEvaluationError, GrowthReport,
                         PartitionResult, RDESolution, SolverConfig,
                         adaptive_partition, apriori_sup_bound, blowup_json,
                         growth_bound_check, solution_to_partial, solve_rde,
                         solve_rde_corrected, write_solution_csv)
from .log_sphere_map import (ShiftedMap, choose_shift, grad_phi, h1_h2,
                             sphere_state_projection, transformed_field)

__version__ = "0.1.0"
