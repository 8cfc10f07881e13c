"""Exception types shared across the package."""


class VcnnError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(VcnnError, ValueError):
    """Malformed argument: wrong dimension, non-finite coordinate, bad label, ..."""


class UnsupportedParametersError(VcnnError, ValueError):
    """Parameters outside the supported (d, m) grid or an operation's stated range."""


class InvalidWitnessError(VcnnError, ValueError):
    """A witness precondition failed, e.g. the interior point is not strictly interior."""


class ConstructionInfeasibleError(VcnnError, RuntimeError):
    """A generator has no witness for a labelling.

    From the constructions this is an internal bug signal, since they are
    proven to cover every labelling of their arrangements. It is also a
    normal outcome: the randomized search raises it when its budget finds
    no witness, and re-verification when a stored witness is missing.
    """


class NumericalError(VcnnError, ArithmeticError):
    """A solver failed to converge or a residual check failed."""


class CertificateError(VcnnError, ValueError):
    """A certificate file is malformed, incomplete, or of an unknown schema."""
