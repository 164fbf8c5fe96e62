"""Numerical laboratory for a degenerate FBSDE with binary terminal condition."""

from .model_core import (
    AssumptionError, FeedbackFn, ModelSpec, Mollifier, TerminalCondition,
    ValidationReport, affine_model, custom_tc, default_mollifier, effective_ell,
    heaviside_tc, linear_drift_model, mollify, nonlinear_model, phi_sides,
    smooth_ramp_tc, validate_assumptions,
)
from .burgers_ref import (
    BurgersProfile, GapTable, WEvaluator, burgers_gap, characteristic,
    inviscid_value, psi, w_eval,
)
from .value_pde import (
    CFLError, DerivativeFields, Grid, SolveDivergenceError, ValueField,
    bound_report, conservation_gap, e_nodes_for, extract_limit,
    gradient_fields, solve_mollified, solve_reduced_1d, time_nodes_with_tail,
    uniform_time_nodes,
)
from .mc_engine import (
    AtomCurve, FlowReport, GradPEstimate, PathEnsemble, PrefactorReport,
    SimConfig, SupportHistogram, TransmissionProfile, TrapReport, VarianceScan,
    conditional_support, default_delta_ladder, dirac_scan, feynman_kac_grad_p,
    flow_squeeze_check, gaussian_control_terminal, prefactor_report,
    simulate_forward, terminal_sandwich_check, transmission_scan,
    trap_diagnostic, variance_scan,
)
from .fieldio import dump_field, export_slice_csv, load_field, write_csv

__version__ = "0.1.0"
