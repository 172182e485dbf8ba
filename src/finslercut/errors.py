"""Exception types shared across the package."""


class FinslerError(Exception):
    """Base class for all package errors."""


class DomainError(FinslerError):
    """A coordinate point lies outside its declared chart box."""


class DegenerateDirectionError(FinslerError):
    """An operation requiring v != 0 received a (near-)zero vector."""


class ConvexityError(FinslerError):
    """A metric's parameters break strong convexity: its fundamental tensor
    is not positive definite everywhere."""


class InversionError(FinslerError):
    """Legendre inversion failed to converge."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class IntegrationError(FinslerError):
    """Geodesic integration failed (step underflow or blow-up)."""

    def __init__(self, msg, t=None, x=None):
        super().__init__(msg)
        self.t = t
        self.x = x


class AtlasExitError(IntegrationError):
    """A trajectory left the chart atlas."""


class ImmersionError(FinslerError):
    """A submanifold immersion is rank deficient."""


class UnreachedPointError(FinslerError):
    """Multistart shooting failed to reach a target point."""


class CutLocusError(FinslerError):
    """A point unexpectedly lies on the cut locus."""


class NondifferentiableError(FinslerError):
    """The distance-squared function is not differentiable at the query.

    Carries the one-sided values along each minimizing terminal velocity.
    """

    def __init__(self, msg, one_sided=None):
        super().__init__(msg)
        self.one_sided = one_sided or []


class RetractionUndefinedError(FinslerError):
    """retract_to_cut was asked to move along a ray with infinite cut time."""


class ReversibilityError(FinslerError):
    """An operation requiring a reversible metric got an irreversible one."""


class ScenarioError(FinslerError):
    """Scenario configuration is invalid."""

    def __init__(self, msg, pointer=None):
        super().__init__(msg)
        self.pointer = pointer


class NumericalFailure(FinslerError):
    """A theorem-mandated outcome was not reproduced numerically."""
