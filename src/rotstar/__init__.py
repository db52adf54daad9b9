"""Steady states of slowly rotating self-gravitating bodies.

Compressible Euler-Poisson and Vlasov-Poisson models: radial base solutions,
mass-condition diagnostics, linearized-operator spectra, and nonlinear Newton
continuation in the rotation intensity.
"""

from .eos import (EquationOfState, PowerLawEOS, PowerSumEOS, CallableEOS,
                  RotationProfile, power_law, power_sum, constant_rotation,
                  validate_assumptions, check_mass_condition_b)
from .radial import (RadialStar, MassCurve, solve_radial, mass_derivative,
                     gamma_43_identity_check, mass_curve)
from .linop import (ModeOperator, assemble_mode, kernel_margin_ladder, apply,
                    solve)
from .axisym import EPS0, Discretization, Geometry, ModalField
from .rotating import (EPModel, RotatingSolution, ShapeReport,
                       centrifugal_rhs, first_order_shape, evaluate_F,
                       newton_continue)
from .vlasov import (VlasovAnsatz, VlasovStar, VPModel, solve_vp_radial,
                     scaling_response, vp_rotation_response)
from .errors import (RotstarError, ConfigError, SolverError, StiffnessError,
                     NoEventError, UnboundStarError, EOSError,
                     NonIntegrableEnthalpyError, DegenerateOperatorError,
                     DeformationError)

__version__ = "0.1.0"
