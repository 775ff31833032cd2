"""Exception types shared across the package."""


class PlanningError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PlanningError):
    """Invalid configuration value, model file, or argument combination."""


class NewtonError(PlanningError):
    """A Newton or fixed-point solve failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegrationError(PlanningError):
    """An ODE integration produced a non-finite state; last_state is the last finite one."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class BlowupError(PlanningError):
    """The time marcher exceeded the overflow guard.

    Carries the last stable time, the partial solution, the steps taken (the failing
    one included), the failing dt and what set it: 'cfl', 'dt_max' or 'record'.
    """

    def __init__(self, message, t_last, partial=None, steps=None, dt=None, limit=None):
        super().__init__(message)
        self.t_last = t_last
        self.partial = partial
        self.steps = steps
        self.dt = dt
        self.limit = limit


class TrajectoryExitError(PlanningError):
    """A backward trajectory left the computational box."""

    def __init__(self, message, t_exit, partial=None):
        super().__init__(message)
        self.t_exit = t_exit
        self.partial = partial
