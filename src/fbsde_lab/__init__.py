"""Numerical laboratory for a degenerate FBSDE with binary terminal condition."""

from .model_core import (
    AssumptionError, FeedbackFn, ModelSpec, TerminalCondition, ValidationReport,
    affine_model, effective_ell, heaviside_tc, linear_drift_model, mollify,
    nonlinear_model, smooth_ramp_tc, validate_assumptions,
)
from .burgers_ref import (
    BurgersProfile, GapTable, WEvaluator, burgers_gap, characteristic,
    gaussian_control_fractions, psi, trap_probability,
)
from .value_pde import (
    CFLError, Grid, SolveDivergenceError, ValueField,
    conservation_gap, e_nodes_for, gradient_fields, solve_mollified,
    solve_reduced_1d, time_nodes_with_tail,
)
from .mc_engine import (
    AtomCurve, FlowReport, GradPEstimate, PathEnsemble, PrefactorReport,
    SimConfig, SupportHistogram, TransmissionProfile, VarianceScan,
    conditional_support, default_delta_ladder, dirac_scan, feynman_kac_grad_p,
    flow_squeeze_check, prefactor_report,
    simulate_forward, terminal_sandwich_check, transmission_scan, variance_scan,
)
from .fieldio import dump_field, load_field, write_csv

__version__ = "0.1.0"
