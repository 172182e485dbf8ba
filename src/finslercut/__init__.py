"""Numerical Finsler geometry: geodesics, normal cone bundles, and the
focal and cut loci of submanifolds, with structural checks on the results.
"""

__version__ = "0.1.0"

from .atlas import (ManifoldAtlas, TangentVec, Transition, flat_atlas,
                    sphere_atlas, torus_atlas)
from .errors import (AtlasExitError, ConvexityError, CutLocusError,
                     DegenerateDirectionError, DomainError, FinslerError,
                     ImmersionError, IntegrationError, InversionError,
                     NondifferentiableError, NumericalFailure,
                     RetractionUndefinedError, ReversibilityError,
                     ScenarioError, UnreachedPointError)
from .metric import (CustomMetric, MetricField, MetricReport,
                     MinkowskiQuarticMetric, RandersMetric, ReversedMetric,
                     RiemannianMetric, euclidean_metric, legendre_inverse,
                     sphere_metric, validate_metric)
from .geodesic import (GeodesicPath, LinearizedFrame, PathSegment,
                       conjugate_time, exp_map, first_degeneracy,
                       integrate_geodesic, integrate_geodesics,
                       linearized_flow, linearized_flows, path_energy,
                       path_length)
from .submanifold import (Minimizer, NormalRay, SubmanifoldSpec,
                          annihilator_basis, axis_line_submanifold,
                          circle_submanifold, cone_variation_data,
                          ellipse_submanifold, normal_jacobi_flow,
                          normal_jacobi_flows, point_submanifold,
                          sample_unit_cone, sampled_curve_submanifold,
                          tangent_frame, unit_normal)
from .cutlocus import (CutRecord, CutTimeResult, DistanceWitness,
                       NormalShooting, Report, ShootingPlan,
                       check_rho_continuity, check_rho_leq_lambda,
                       check_se_dense, cut_locus)
from .topology import (InverseExpResult, VariationReport,
                       check_first_variation, distance_sq_differential,
                       homotopy_trace, inverse_normal_exp, one_sided_spread,
                       retract_to_N, retract_to_cut)
from .loops import (LoopResult, TwoGeodesics, find_geodesic_loop,
                    min_M_on_cut, require_reversible, reversibility_defect,
                    two_geodesics_to, verify_two_segments)
from .scenario import (BUILTINS, OutputBundle, Scenario, builtin_scenario,
                       compare_to_golden, list_builtin_scenarios,
                       parse_scenario, run_scenario, summary_document,
                       write_golden)
