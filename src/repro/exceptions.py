"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still being able to distinguish schema problems
from budget problems and so on.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A node, edge or attribute violates the declared network schema."""


class NetworkError(ReproError):
    """An operation on a heterogeneous network received invalid input."""


class AlignmentError(ReproError):
    """An operation on an aligned network pair received invalid input."""


class MetaStructureError(ReproError):
    """A meta path or meta diagram definition is malformed."""


class FeatureError(ReproError):
    """Feature extraction was configured or invoked incorrectly."""


class ModelError(ReproError):
    """An alignment model was used incorrectly (e.g. predict before fit)."""


class NotFittedError(ModelError):
    """A model method requiring a fitted model was called before ``fit``."""


class BudgetExhaustedError(ReproError):
    """The active-learning oracle was queried beyond its label budget."""


class ConstraintViolationError(ReproError):
    """A predicted link set violates the one-to-one cardinality constraint."""


class ExperimentError(ReproError):
    """The evaluation protocol was configured inconsistently."""


class StoreError(ReproError):
    """The disk-backed matrix store was configured or used incorrectly."""


class CheckpointInterrupt(ReproError):
    """Raised by a checkpoint configured to simulate a mid-run crash.

    Carries no error semantics beyond "the process stopped here": the
    checkpoint on disk is complete and a later run may resume from it.
    """


class DatasetError(ReproError):
    """A dataset preset or generator was configured inconsistently."""
