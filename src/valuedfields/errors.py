"""Exception taxonomy shared across the package.

Every error raised on a contract violation derives from ValuedFieldError so
callers (and the command line front end) can catch one base class and report
a structured message instead of a traceback.
"""

from __future__ import annotations


class ValuedFieldError(Exception):
    """Base class for all structured errors in this package."""


class FamilyMismatchError(ValuedFieldError):
    """Operands belong to different group families or different descriptors."""


class GroupLawError(ValuedFieldError):
    """An element violates the denominator law of its group descriptor."""


class SpanError(ValuedFieldError):
    """A target element does not lie in the span of the given generators."""


class IterationCapError(ValuedFieldError):
    """An iterative search exceeded its cap without reaching its goal."""


class FieldMismatchError(ValuedFieldError):
    """Operands belong to different coefficient fields."""


class CharacteristicError(ValuedFieldError):
    """An operation requires a different field characteristic."""


class PrecisionError(ValuedFieldError):
    """A question is undecidable at the precision carried by the operands."""


class WrongCaseError(ValuedFieldError):
    """An operation was invoked outside the case split it implements."""


class NoResidueRootError(ValuedFieldError):
    """The reduced polynomial has no (simple) root in the residue field."""


class SingularPointError(ValuedFieldError):
    """The Jacobian criterion fails at the proposed center."""


class PerturbationError(ValuedFieldError):
    """A perturbation exceeds the threshold that guarantees unique lifting."""


class HypothesisError(ValuedFieldError):
    """A construction hypothesis (e.g. rational independence) is violated."""


class PoleError(ValuedFieldError):
    """Evaluation hit a zero denominator."""


class UnsupportedError(ValuedFieldError):
    """The requested combination of families/shapes is outside the contract."""


class ParamError(ValuedFieldError):
    """Invalid scenario or command parameters."""


class ExprError(ValuedFieldError):
    """Malformed expression text."""
