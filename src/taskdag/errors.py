"""Exception types shared across the package, and the one integer rule."""


class TaskDagError(ValueError):
    """Base class for all domain errors raised by this package."""


class GraphError(TaskDagError):
    """Structural violation on a graph operation (range, order, duplicate, absent edge, bad payload)."""


class CapacityError(TaskDagError):
    """Input exceeds a hard size cap of an exhaustive or exponential routine."""


class DomainError(TaskDagError):
    """Parameters fall outside the stated domain of a closed form or family constructor."""


class ConfigError(TaskDagError):
    """Invalid process configuration."""


def check_int(
    error: type[TaskDagError], lo: int = 1, hi: int | None = None, **values: object
) -> None:
    """The one integer rule: every value is an ``int`` (never a ``bool``) with
    ``lo <= value <= hi``; otherwise raise ``error`` naming the parameter."""
    for name, value in values.items():
        if type(value) is not int or value < lo or (hi is not None and value > hi):
            if hi is not None:
                want = f"lie in [{lo}, {hi}]"
            elif lo == 1:
                want = "be a positive integer"
            else:
                want = f"be an integer >= {lo}"
            raise error(f"{name} must {want}, got {value!r}")
