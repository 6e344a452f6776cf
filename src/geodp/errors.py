"""Exception types shared across the toolkit.

Every error keeps its constructor's arguments as ``args`` and formats its
message in ``__str__``, so ``pickle`` rebuilds it with the same class,
message and attributes: a forked worker's error reaches the parent that way.
"""


class GeodpError(Exception):
    """Base class for all toolkit errors."""


class SingularProjection(GeodpError):
    """Metric projection undefined: the point to normalize is too close to a singular set."""


class CutLocus(GeodpError):
    """Logarithm / transport requested at or beyond the injectivity radius."""


class NonTangentField(GeodpError):
    """A diffusion field that is not tangent to the manifold was supplied."""


class ContractionViolated(GeodpError):
    """Driver Lipschitz constant times dt is >= 1; the implicit step would not contract."""


class ComparisonViolated(GeodpError):
    """Ordered BSDE inputs produced unordered solutions at some node."""

    def __init__(self, step, path, low, high):
        super().__init__(step, path, low, high)
        self.step = step
        self.path = path

    def __str__(self):
        step, path, low, high = self.args
        return f"comparison violated at step={step}, path={path}: {low!r} > {high!r}"


class GridMismatch(GeodpError):
    """A noise grid that does not fit the fields it drives (its dimension d)."""


class CflViolated(GeodpError):
    """Explicit time step too large for the stencil spacing."""


class WorkerLost(GeodpError):
    """A forked worker of ``dynamics.fork_map`` ended without sending its results."""


class ConfigError(GeodpError):
    """Invalid experiment configuration; message names the offending field."""

    def __init__(self, field, message):
        super().__init__(field, message)
        self.field = field

    def __str__(self):
        field, message = self.args
        return f"config field '{field}': {message}"
