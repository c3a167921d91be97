"""Exception hierarchy shared across the package."""


class TreePatternError(Exception):
    """Base class for all errors raised by treepatterns."""


class SelfLoopError(TreePatternError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(TreePatternError):
    """The same undirected edge appears more than once."""


class VertexOutOfRangeError(TreePatternError):
    """A vertex label falls outside 1..n."""


class WrongEdgeCountError(TreePatternError):
    """A tree on n vertices must have exactly n - 1 edges."""


class DisconnectedError(TreePatternError):
    """The edge set does not connect all n vertices."""


class TooSmallError(TreePatternError):
    """The structure has fewer vertices than the operation requires."""


class IndexOutOfRangeError(TreePatternError):
    """An occurrence names a vertex that is not in the host tree."""


class DuplicateVerticesError(TreePatternError):
    """An occurrence repeats a vertex."""


class DomainTooSmallError(TreePatternError):
    """n is below the domain of an exact formula; no silent zero is returned."""


class SampleCountError(TreePatternError, ValueError):
    """A Monte Carlo run was asked for fewer than one sample."""


class SamplerRangeError(TreePatternError, ValueError):
    """The sampler was asked to draw from 1..n with n outside 1..2**64."""


class CapExceededError(TreePatternError):
    """A request exceeds a size limit: the exhaustive enumeration cap, or
    the digit ceiling of the exact moment formulas."""


class FormatError(TreePatternError):
    """A text input does not follow the documented file format."""
