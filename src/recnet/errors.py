"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes, so every raise site should pick
the class that matches what went wrong rather than a bare ValueError.
"""


class ShapeError(ValueError):
    """Tensor/kernel dimensions are inconsistent with the operation."""


class ConfigError(ValueError):
    """A hyper-parameter combination is invalid (e.g. d=0, even kernel with same padding)."""


class FormatError(ValueError):
    """An on-disk artifact (dataset file, checkpoint) is malformed."""


class SpentCacheError(ValueError):
    """A backward was handed a training cache that an earlier backward consumed."""
