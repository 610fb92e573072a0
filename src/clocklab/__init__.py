"""clocklab: a numerical laboratory for the proper-time/rest-mass
uncertainty relation.

Three layers: closed-form weighing thought experiments (``gedanken``),
constrained extended-phase-space clock dynamics (``metric``, ``dynamics``,
``brackets``), and the quantized clock in flat space (``states``,
``operators``, ``moments``, ``search``), tied together by a scenario-driven
command line (``config``, ``runner``, ``cli``).
"""
from .brackets import reduced_canonical_pair
from .dynamics import (
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
from .grids import UniformGrid, boundary_amplitude_ratio, trapezoid_norm_squared
from .metric import StaticMetric, uniform_lapse_metric
from .moments import (
    StateMoments,
    TauMoments,
    VarianceLawCoefficients,
    state_moments,
    tau_moments_simulated,
)
from .operators import commutator_residual, evolve
from .search import optimize_clock_width
from .states import (
    GaussianClockSpec,
    MomentumSpaceState,
    gaussian_state,
    make_gaussian_state,
    probability_marginals,
    suggest_grids,
)
from .units import NATURAL_UNITS, SI_UNITS, UnitContext, UnitSystem, convert_units

__version__ = "0.1.0"

__all__ = [
    "BoxExperiment",
    "EFieldExperiment",
    "GaussianClockSpec",
    "MomentumSpaceState",
    "NATURAL_UNITS",
    "SI_UNITS",
    "StateMoments",
    "StaticMetric",
    "TauMoments",
    "UncertaintyReport",
    "UniformGrid",
    "UnitContext",
    "UnitSystem",
    "VarianceLawCoefficients",
    "boundary_amplitude_ratio",
    "box_uncertainties",
    "commutator_residual",
    "convert_units",
    "dilation_factor",
    "efield_uncertainties",
    "evolve",
    "gaussian_state",
    "geodesic_lorentz_residual",
    "hamilton_rhs",
    "integrate",
    "make_gaussian_state",
    "moving_clock",
    "optimize_clock_width",
    "probability_marginals",
    "proper_time_residual",
    "reduced_canonical_pair",
    "spring_mass",
    "state_moments",
    "suggest_grids",
    "tau_moments_simulated",
    "total_hamiltonian",
    "trapezoid_norm_squared",
    "uniform_lapse_metric",
]
