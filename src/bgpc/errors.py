"""Exception types shared across the package."""


class BgpcError(Exception):
    """Base class for package-specific failures."""


class DimensionError(BgpcError, ValueError):
    """Inputs have inconsistent or invalid dimensions."""


class InfeasibleConstructionError(BgpcError, ValueError):
    """The requested (n, m, N) violates the feasibility inequality (n-m)*N >= n-1."""


class BudgetExceededError(BgpcError, RuntimeError):
    """A support enumeration would exceed the configured cell budget."""
