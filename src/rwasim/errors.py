"""Exception types shared across the solver modules."""


class SimulationError(Exception):
    """Base class for runtime failures of a solver pathway."""


class ModelError(SimulationError):
    """The supplied model is inconsistent (e.g. non-Hermitian Hamiltonian)."""


class StiffnessError(SimulationError):
    """Adaptive step control failed, or a solve needs more steps than its
    budget allows; the problem is too stiff as configured."""


class RiccatiPoleError(SimulationError):
    """The disentangling integration approached a pole of the Riccati variable.

    Attributes
    ----------
    t_pole : float
        Time at which the pole guard fired.
    partial : TimeSeries or None
        Samples accumulated before the guard fired, if any.
    """

    def __init__(self, t_pole, partial=None, reason=""):
        self.t_pole = float(t_pole)
        self.partial = partial
        self.reason = reason
        msg = f"Riccati pole approached near t = {t_pole:.6g}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class ScenarioError(ValueError):
    """A scenario file failed validation; `field` holds the offending path."""

    def __init__(self, message, field=""):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)
