"""Exception types shared across the solver modules."""


class SimulationError(Exception):
    """Base class for runtime failures of a solver pathway."""


class ModelError(SimulationError):
    """The supplied model is inconsistent (e.g. non-Hermitian Hamiltonian)."""


class StiffnessError(SimulationError):
    """Adaptive step control failed, or a solve needs more steps than its
    budget allows; the problem is too stiff as configured."""


class RiccatiPoleError(SimulationError):
    """The disentangling integration approached a pole of the Riccati
    variable F: |F| reached its blow-up guard f_max.

    Attributes
    ----------
    t_pole : float
        Time at which |F| reached the guard.
    partial : TimeSeries or None
        From solve_beyond_rwa, the samples before the guard fired, cut before
        the first row whose norm is not finite and flagged riccati_pole.
    """

    def __init__(self, t_pole, partial=None):
        self.t_pole = float(t_pole)
        self.partial = partial
        super().__init__(
            f"Riccati pole approached near t = {t_pole:.6g} (|F| beyond blow-up guard)"
        )


class ScenarioError(ValueError):
    """A scenario file failed validation; `field` holds the offending path."""

    def __init__(self, message, field=""):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)
