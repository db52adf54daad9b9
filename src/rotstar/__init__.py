"""Steady states of slowly rotating self-gravitating bodies.

Compressible Euler-Poisson and Vlasov-Poisson models: radial base solutions,
mass-condition diagnostics, linearized-operator spectra, and nonlinear Newton
continuation in the rotation intensity.
"""

from .eos import (EquationOfState, RotationProfile, power_law, power_sum,
                  constant_rotation, validate_assumptions,
                  check_mass_condition_b)
from .radial import RadialStar, solve_radial, mass_derivative, mass_curve
from .linop import assemble_mode, kernel_margin_ladder
from .axisym import EPS0, Discretization, Geometry, ModalField
from .rotating import (EPModel, RotatingSolution, evaluate_F,
                       newton_continue, sphere_response, sphere_step)
from .vlasov import VlasovAnsatz, VPModel
from .errors import (RotstarError, ConfigError, SolverError,
                     UnboundStarError, EOSError, DegenerateOperatorError,
                     DeformationError)

__version__ = "0.1.0"
