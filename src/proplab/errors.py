"""Shared exception types."""


class ProplabError(Exception):
    """Base class for all library errors."""


class NotFree(ProplabError):
    """Raised when the upper-right block of a symplectic matrix is
    (numerically) singular, i.e. the propagator kernel degenerates."""


class EpsilonTooSmall(ProplabError):
    """The requested decomposition budget is below the grid truncation floor."""


class DimensionUnsupported(ProplabError):
    """Operation restricted to lower dimension than requested."""


class EmptyTable(ProplabError):
    """Plot emitter received no rows."""


class ConfigError(ProplabError):
    """Malformed experiment configuration."""
