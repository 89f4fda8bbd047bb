"""Exception types shared across the library."""


class AcygroupsError(Exception):
    """Base class for all library errors.

    ``where``, when set, is the key path from the document of the refused
    object to the value at fault, as the constructor that refuses it reads
    its arguments: ``("edges", 3)`` or ``("action", "a")``.
    """

    def __init__(self, message="", where=None):
        super().__init__(message)
        self.where = where


class MatchingViolation(AcygroupsError):
    """A colour class is not a partial matching (vertex with two equal-coloured
    edges)."""


class UnknownName(AcygroupsError):
    """Reference to a vertex or colour that is not in the registry."""


class IncompleteGraph(AcygroupsError):
    """An operation that needs a complete graph was given an incomplete one."""


class DegenerateGenerators(AcygroupsError):
    """Two generator permutations coincide, one equals the identity, or one
    is not an involution."""


class ResourceCap(AcygroupsError):
    """An enumeration exceeded its configured budget.  Never silent truncation.

    Long-running constructions attach whatever verified prefix they completed
    (``partial`` / ``stage_reports``) so callers can inspect honest state.
    """

    def __init__(self, message, partial=None, stage_reports=None):
        super().__init__(message)
        self.partial = partial
        self.stage_reports = stage_reports


class CompatibilityRequired(AcygroupsError):
    """The group is not compatible with the template graph it is used with."""


class PreconditionFailed(AcygroupsError):
    """A verified precondition of a construction does not hold."""


class StrictnessViolation(AcygroupsError):
    """A quotient produced loops, multi-edges or branching; signals a bug or a
    violated precondition of the construction."""


class TransitivityViolation(AcygroupsError):
    """The one-step identification relation of a quotient failed to be
    transitive, contradicting the construction's well-definedness guarantee."""


class SchemaError(AcygroupsError):
    """A document failed schema validation; ``pointer`` locates the offender."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer
