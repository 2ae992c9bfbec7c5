"""Exception types shared across the package.

Every error that bad input or settings can raise derives from AcgclError, so
the dispatcher prints a single "ClassName: message" line for it (and for an
OSError) and exits nonzero. Any other exception is a bug and shows a
traceback. A class keeps the builtin base its callers may catch.
"""


class AcgclError(Exception):
    pass


class GraphParseError(AcgclError, ValueError):
    """An input file could not be parsed; message names the file and, for a bad
    line, the line."""


class NodeIdError(AcgclError, IndexError):
    """A node id is outside [0, node count)."""


class ShapeError(AcgclError, ValueError):
    """Array dimensions do not line up."""


class SizeError(AcgclError, ValueError):
    """A count argument is out of range (e.g. a subgraph size k < 1)."""


class ConfigError(AcgclError, ValueError):
    """Invalid configuration; message names the offending key."""


class EmptyDistributionError(AcgclError, ValueError):
    """No subgraph holds a pair of distinct nodes, so a run has no pair distances."""


class ContractError(AcgclError, ValueError):
    """An API precondition was violated (e.g. backward from a non-scalar)."""


class TrainingDiverged(AcgclError, RuntimeError):
    """A non-finite loss appeared during training."""
