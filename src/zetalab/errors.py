"""Exception types shared across the package.

Every numerical-domain failure is signaled by an exception from this
module, never by a silent NaN in a returned value.
"""


class ZetaLabError(Exception):
    """Base class for all errors raised by zetalab operations."""


class PoleAtNonPositiveInteger(ZetaLabError):
    """Gamma evaluated within 1e-12 of one of its poles 0, -1, -2, ..."""


class Overflow(ZetaLabError):
    """Result magnitude would exceed the floating range."""


class PoleAtOne(ZetaLabError):
    """zeta evaluated within 1e-12 of its pole s = 1."""


class DomainError(ZetaLabError):
    """Argument outside the operation's convergence/validity region."""


class CapacityError(ZetaLabError):
    """Requested sieve bound exceeds the configured memory budget."""


class BoundMismatch(ZetaLabError):
    """Dirichlet convolution of coefficient sequences with unequal bounds."""


class ZeroInput(ZetaLabError):
    """conj_ratio called with u = v = 0."""


class NearZeroOfZeta(ZetaLabError):
    """nu evaluated too close to a zero of zeta to be well conditioned."""


class NearPole(ZetaLabError):
    """nu evaluated too close to a pole to be well conditioned."""


class DenominatorZero(ZetaLabError):
    """theta evaluated within 1e-9 of a zero of (1 - 2^(1-s))."""


class EtaTwoSZero(ZetaLabError):
    """kappa evaluated where eta(2s) vanishes to working precision."""


class BoundaryTooCloseToZero(ZetaLabError):
    """Contour boundary passes too close to a zero to resolve the winding."""


class NonIntegerWinding(ZetaLabError):
    """Accumulated argument change is not within 0.1 of an integer multiple of 2*pi."""


class EvaluationFailure(ZetaLabError):
    """An evaluator passed to multiplicity() failed on a probe point."""


class UnknownCheckId(ZetaLabError):
    """run_check called with an id that is not in the registry."""
