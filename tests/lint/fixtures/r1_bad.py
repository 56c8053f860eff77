"""Fixture: R1 violations -- untagged constant, mixed units.

repro-lint-scope: units
"""

SPEED = 3.0  # untagged ALL-CAPS numeric constant -> tag-coverage finding

LENGTH = 2.0  #: [unit: m]
DURATION = 4.0  #: [unit: s]

TOTAL = LENGTH + DURATION  # [m] + [s] -> mixing finding


def too_short(width: float = LENGTH) -> bool:
    return width < DURATION  # [m] vs [s] -> comparison finding


def slack(delay: float) -> float:
    """Length left after a delay -- the tag sits on the parameter only.

    Args:
        delay: Elapsed time.  [unit: s]
    """
    return LENGTH - delay  # [m] - [s] via the docstring tag -> mixing finding
