"""Exception types shared across the toolkit."""


class GeodpError(Exception):
    """Base class for all toolkit errors."""


class SingularProjection(GeodpError):
    """Metric projection undefined: the point to normalize is too close to a singular set."""


class CutLocus(GeodpError):
    """Logarithm / transport requested at or beyond the injectivity radius."""


class NonTangentField(GeodpError):
    """A diffusion field without a tangency certificate was supplied."""


class ContractionViolated(GeodpError):
    """Driver Lipschitz constant times dt is >= 1; the implicit step would not contract."""


class IllConditionedRegression(GeodpError):
    """Normal equations of the conditional-expectation regression are numerically singular."""


class ComparisonViolated(GeodpError):
    """Ordered BSDE inputs produced unordered solutions at some node."""

    def __init__(self, step, path, low, high):
        self.step = step
        self.path = path
        super().__init__(
            f"comparison violated at step={step}, path={path}: {low!r} > {high!r}"
        )


class GridMismatch(GeodpError):
    """Two solutions that must share a grid/noise were built on different ones."""


class CflViolated(GeodpError):
    """Explicit time step too large for the stencil spacing."""


class ConfigError(GeodpError):
    """Invalid experiment configuration; message names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
