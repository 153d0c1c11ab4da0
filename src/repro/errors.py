"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one base class.  The subclasses mirror the layers of the system:
schema errors come from the relational substrate, definition errors from the
view layer, lattice errors from the lattice machinery, and delta errors from
the maintenance core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema is malformed or an operation references unknown columns."""


class ExpressionError(ReproError):
    """An expression cannot be bound or evaluated against a schema."""


class TableError(ReproError):
    """A table operation is invalid (bad arity, missing index, ...)."""


class DefinitionError(ReproError):
    """A summary-view definition is malformed or unsupported."""


class UnsupportedAggregateError(DefinitionError):
    """An aggregate function outside the supported (non-holistic) set."""


class LatticeError(ReproError):
    """A lattice construction or derivation step failed."""


class DerivationError(LatticeError):
    """A view cannot be derived from the proposed parent view."""


class MaintenanceError(ReproError):
    """A propagate/refresh step failed."""


class InconsistentDeltaError(MaintenanceError):
    """A change set is inconsistent with the warehouse state.

    Raised, for example, when a refresh would drive a group's ``COUNT(*)``
    negative, which means the deferred deletions removed tuples that never
    existed in the base data.
    """


class LineageError(MaintenanceError):
    """Change-set lineage would be violated.

    Raised when recording an epoch manifest would place a batch id in a
    second manifest of the same view — the same deferred changes applied
    twice — breaking the no-duplication invariant that makes "which
    epoch contains batch N" a well-posed question.
    """


class PublishError(MaintenanceError):
    """A shadow view version cannot be published.

    Raised when the shadow was built against an epoch that is no longer
    current (two concurrent maintainers raced), when that base epoch was
    written in place after the shadow copied it (publishing would drop
    the write), or when the shadow's incrementally-maintained certificate
    does not match one recomputed from storage over the slots the build
    wrote (a torn or corrupted build must never become visible).
    """


class WorkloadError(ReproError):
    """A workload generator was configured with impossible parameters."""
