"""Exception types shared across the package."""


class VcitError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(VcitError):
    """DC or transient solve hit the iteration cap before meeting the residual target."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual={residual:.3e} A after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class UnknownPad(VcitError):
    """A referenced pad id does not exist on the model."""


class NoPathToRail(VcitError):
    """An injected pad has no circuit element routing to the sensed rail."""


class NotPoweredModel(VcitError):
    """Operation requires a powered model with a consumption map."""


class SimulationFailure(VcitError):
    """Prober execution failed because the underlying solve did not converge."""


class DegenerateLevels(VcitError):
    """Differential test received captures with equal applied levels."""


class LengthMismatch(VcitError):
    """Two sample series that must align have different lengths."""


class DimensionMismatch(VcitError):
    """Measurement vector dimension does not match the region."""


class OperatorAborted(VcitError):
    """The operator declined a prompt that the session cannot proceed without."""


class FixtureError(VcitError):
    """Fixture, scenario or session-log input failed to parse or validate."""


class BusError(VcitError):
    """An ERR reply from the prober bus, surfaced client-side."""

    def __init__(self, code: int, message: str):
        super().__init__(f"ERR {code} {message}")
        self.code = code


class ProtocolError(VcitError):
    """Malformed or unparseable data on the prober bus."""
