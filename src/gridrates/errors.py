"""Exception types shared across the package. A `ValueError` is bad input
(exit 1 from the CLI), and every bad-input class here is one; any other
exception is a runtime failure (exit 2)."""


class GridRatesError(Exception):
    """Base class for all package-specific errors."""


class ZeroProfile(GridRatesError, ValueError):
    """A load profile with zero total consumption has no defined rate."""


class EmptyPopulation(GridRatesError, ValueError):
    """An operation requiring at least one profile received none."""


class MalformedRow(GridRatesError, ValueError):
    """A CSV row is structurally unusable (bad or duplicate user id)."""

    def __init__(self, row_number, message):
        self.row_number = row_number
        super().__init__(f"row {row_number}: {message}")


class InconsistentHorizon(GridRatesError, ValueError):
    """Profiles in one source disagree on the number of time slots."""


class KTooLarge(GridRatesError, ValueError):
    """Requested more clusters than there are users."""


class EmptyClusterRepairFailed(GridRatesError):
    """Could not repair an empty cluster (fewer distinct points than k)."""


class DegenerateCenters(GridRatesError):
    """Own and target cluster centers coincide; switch effort is undefined."""


class InstanceTooLarge(GridRatesError):
    """Instance exceeds the configured cap for the exact partition search."""


class ConfigError(GridRatesError, ValueError):
    """A run configuration failed validation."""


class PriceWarning(UserWarning):
    """Non-fatal pricing anomaly, e.g. a non-positive marginal price."""
