"""clocklab: a numerical laboratory for the proper-time/rest-mass
uncertainty relation.

Three layers: closed-form weighing thought experiments (``gedanken``),
constrained extended-phase-space clock dynamics (``metric``, ``dynamics``,
``brackets``), and the quantized clock in flat space (``states``,
``operators``, ``moments``, ``search``), tied together by a scenario-driven
command line (``config``, ``runner``, ``cli``).
"""
from .brackets import dirac_bracket, poisson_bracket, reduced_canonical_pair
from .dynamics import (
    ExtendedPhaseSpacePoint,
    Trajectory,
    base_hamiltonian,
    clock_at_rest,
    constraints,
    geodesic_lorentz_residual,
    hamilton_rhs,
    integrate,
    moving_clock,
    proper_time_residual,
    total_hamiltonian,
)
from .gedanken import (
    BoxExperiment,
    EFieldExperiment,
    UncertaintyReport,
    box_uncertainties,
    dilation_factor,
    efield_uncertainties,
    spring_mass,
)
from .grids import (
    ComplexField2D,
    UniformGrid,
    boundary_amplitude_ratio,
    trapezoid_norm_squared,
)
from .metric import StaticMetric, flat_metric, isotropic_weak_field_metric, uniform_lapse_metric
from .moments import (
    StateMoments,
    TauMoments,
    VarianceLawCoefficients,
    peaked_approximation_report,
    salecker_wigner_check,
    state_moments,
    tau_moments_simulated,
)
from .operators import Observable, commutator_residual, evolve, expectation
from .search import optimize_clock_width
from .states import (
    GaussianClockSpec,
    MomentumSpaceState,
    gaussian_state,
    make_gaussian_state,
    probability_marginals,
    suggest_grids,
)
from .units import NATURAL_UNITS, SI_UNITS, UnitContext, UnitSystem, convert_units, rest_energy

__version__ = "0.1.0"

__all__ = [
    "BoxExperiment",
    "ComplexField2D",
    "EFieldExperiment",
    "ExtendedPhaseSpacePoint",
    "GaussianClockSpec",
    "MomentumSpaceState",
    "NATURAL_UNITS",
    "Observable",
    "SI_UNITS",
    "StateMoments",
    "StaticMetric",
    "TauMoments",
    "Trajectory",
    "UncertaintyReport",
    "UniformGrid",
    "UnitContext",
    "UnitSystem",
    "VarianceLawCoefficients",
    "base_hamiltonian",
    "boundary_amplitude_ratio",
    "box_uncertainties",
    "clock_at_rest",
    "commutator_residual",
    "constraints",
    "convert_units",
    "dilation_factor",
    "dirac_bracket",
    "efield_uncertainties",
    "evolve",
    "expectation",
    "flat_metric",
    "gaussian_state",
    "geodesic_lorentz_residual",
    "hamilton_rhs",
    "integrate",
    "isotropic_weak_field_metric",
    "make_gaussian_state",
    "moving_clock",
    "optimize_clock_width",
    "peaked_approximation_report",
    "poisson_bracket",
    "probability_marginals",
    "proper_time_residual",
    "reduced_canonical_pair",
    "rest_energy",
    "salecker_wigner_check",
    "spring_mass",
    "state_moments",
    "suggest_grids",
    "tau_moments_simulated",
    "total_hamiltonian",
    "trapezoid_norm_squared",
    "uniform_lapse_metric",
]
