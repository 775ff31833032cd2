"""Finite-state planning solver with affine relabeling noise.

The package solves the coupled transport system for the decoupling field of
a mean field game on a box grid, drives the initial-condition penalization
toward the planning limit, and provides the supporting machinery: method of
characteristics, nonlinear resolvents with their transported counterpart,
monotonicity and regularity diagnostics, optimal trajectories, and the log
straightening of half-space models.
"""

from .errors import (BlowupError, ConfigError, IntegrationError, NewtonError,
                     PlanningError, TrajectoryExitError)
from .model import (AffineNoiseMap, FieldSpec, ModelSpec, MonotonicityReport,
                    check_couple_monotone, eval_field, load_model,
                    model_from_items, register_field, registered_names)
from .grid_solver import (Box, GridField, GridSolution, Slice, SolutionBatch,
                          SolverParams, lipschitz_norm, node_jacobians,
                          solve_master, write_meta_jsonl, write_solution_csv)
from .characteristics import flow_forward, penalized_data, solve_by_shooting
from .yosida import (ResidualField, eqV_residual, invert_shift, resolvent,
                     yosida_apply, yosida_by_transport, yosida_field)
from .planning import (EstimateReport, ExtractedLimit, GraphLimitDiagnostic,
                       PenalizationRun, certificate_horizon, cross_monotonicity,
                       estimate_certificate, extract_limit,
                       graph_limit_diagnostic, penalized_slice, run_penalization)
from .trajectories import (PlanningConvergence, Trajectory,
                           check_planning_convergence,
                           check_value_consistency, integrate_backward)
from .halfspace import (HalfspaceModel, LogFit, PullbackField,
                        chain_rule_defect, check_factorization,
                        check_inward_flow, check_log_blowup,
                        from_log_coordinates, to_log_coordinates,
                        transformed_model)

__version__ = "0.1.0"

__all__ = [
    "AffineNoiseMap", "BlowupError", "Box", "ConfigError", "EstimateReport",
    "ExtractedLimit", "FieldSpec", "GraphLimitDiagnostic", "GridField",
    "GridSolution", "HalfspaceModel", "IntegrationError", "LogFit", "ModelSpec",
    "MonotonicityReport", "NewtonError", "PenalizationRun",
    "PlanningConvergence", "PlanningError", "PullbackField", "ResidualField",
    "Slice", "SolutionBatch", "SolverParams", "Trajectory",
    "TrajectoryExitError", "certificate_horizon", "chain_rule_defect",
    "check_couple_monotone", "check_factorization", "check_inward_flow",
    "check_log_blowup", "check_planning_convergence", "check_value_consistency",
    "cross_monotonicity", "eqV_residual", "estimate_certificate", "eval_field",
    "extract_limit", "flow_forward", "from_log_coordinates",
    "graph_limit_diagnostic", "integrate_backward", "invert_shift",
    "lipschitz_norm", "load_model", "model_from_items", "node_jacobians",
    "penalized_data", "penalized_slice", "register_field", "registered_names",
    "resolvent", "run_penalization", "solve_by_shooting", "solve_master",
    "to_log_coordinates", "transformed_model", "write_meta_jsonl",
    "write_solution_csv", "yosida_apply", "yosida_by_transport", "yosida_field",
]
