"""Rule plugins.  Importing this package registers every checker.

Each module holds one rule; adding a checker is: create a module here,
subclass :class:`repro.analysis.framework.Rule`, decorate it with
:func:`repro.analysis.framework.register`, and import it below.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    buf007,
    crs008,
    err010,
    exc004,
    iod002,
    pur009,
)

__all__ = ["buf007", "crs008", "err010", "exc004", "iod002", "pur009"]
