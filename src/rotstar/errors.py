"""Exception types shared across the package."""


class RotstarError(Exception):
    """Base class for all package errors."""


class ConfigError(RotstarError):
    """Bad or inconsistent run configuration."""


class SolverError(RotstarError):
    """A numerical solve failed (radial or rotating Newton, continuation)."""


class UnboundStarError(SolverError):
    """The enthalpy never crossed zero: no compactly supported star."""


class EOSError(RotstarError):
    """Equation-of-state domain or integrability problem."""


class DegenerateOperatorError(RotstarError):
    """The linearized operator has a (near-)kernel; mass condition violated.
    The message carries the margin that was refused."""


class DeformationError(RotstarError):
    """Deformation too large, fold in the dilating map, or inversion failure."""
