"""Exception types shared across the package."""


class BlockbootError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(BlockbootError, ValueError):
    """Operands live on different grids or carry different weights."""


class EmptyInputError(BlockbootError, ValueError):
    """An operation received an empty sample or zero-length input."""


class ParameterRangeError(BlockbootError, ValueError):
    """A numeric parameter (seed, stream path, block length, exponent, level) is out of range."""


class PlanMismatchError(BlockbootError, ValueError):
    """A block plan is inconsistent with the sample it is applied to."""


class UnsupportedStatisticError(BlockbootError, TypeError):
    """The requested reduction does not apply to this kind of replicates."""


class NonFiniteStatisticError(BlockbootError, ValueError):
    """A statistic or one of its bootstrap replicates is NaN or infinite."""


class ConfigError(BlockbootError, ValueError):
    """Invalid process, kernel, or experiment configuration."""


class CvmSpecError(BlockbootError, ValueError):
    """Invalid goodness-of-fit specification (weights or hypothesized CDF)."""


class ReplicateMemoryError(BlockbootError, MemoryError):
    """The bootstrap replicates, or the block-pair sums they read, do not fit in memory."""
