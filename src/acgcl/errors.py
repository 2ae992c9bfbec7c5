"""Exception types shared across the package.

Every error that can surface through the CLI derives from AcgclError so the
dispatcher can print a single "ClassName: message" line and exit nonzero.
"""


class AcgclError(Exception):
    pass


class GraphParseError(AcgclError, ValueError):
    """A data file line could not be parsed; message names file and line."""


class ShapeError(AcgclError, ValueError):
    """Array dimensions do not line up."""


class SizeError(AcgclError, ValueError):
    """A count argument is out of range (e.g. K larger than the node count)."""


class ConfigError(AcgclError, ValueError):
    """Invalid configuration; message names the offending key."""


class EmptyDistributionError(AcgclError, ValueError):
    """No valid node pair was available to estimate a distance distribution."""


class ContractError(AcgclError, ValueError):
    """An API precondition was violated (e.g. backward from a non-scalar)."""


class TrainingDiverged(AcgclError, RuntimeError):
    """A non-finite loss appeared during training."""
