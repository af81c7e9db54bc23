"""Exception types shared across the simulator."""


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class RankError(ValueError):
    """Requested adapter rank is outside the legal range."""


class DomainError(ValueError):
    """A physical quantity is outside its domain (e.g. negative bandwidth)."""


class SizeLimitError(ValueError):
    """Problem size exceeds an enumeration guard."""


class SchedulingError(ValueError):
    """A scheduler's candidate set is empty or malformed, or no candidate
    meets its constraints."""


class PlacementError(ValueError):
    """Placement violates chain/capacity constraints."""


class ConfigError(ValueError):
    """Scenario configuration failed to parse or validate.

    ``where`` carries a field path or line/column, for CLI diagnostics.
    """

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)
