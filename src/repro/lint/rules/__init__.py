"""Rule modules; importing this package registers every rule.

Adding a rule: create a module here with a :class:`~repro.lint.core.Rule`
subclass decorated with :func:`~repro.lint.core.register`, then import it
below.  Ids are ``R<n>``; keep them stable -- CI logs and the rule audit in
``docs/STATIC_ANALYSIS.md`` refer to them.  Retired ids (R5, R6, R7, R9)
are never reused.
"""

from __future__ import annotations

from . import (  # noqa: F401  (import for registration side effect)
    cache_keys,
    error_discipline,
    pool_safety,
    unit_flow,
)
