"""Exception types with stable machine-readable codes, surfaced by the CLI."""

from __future__ import annotations


class SymclassError(Exception):
    """Base class; ``code`` identifies the error kind to machine consumers."""

    code = "error"


class NotAPermutation(SymclassError):
    code = "bad-permutation"


class DegreeMismatch(SymclassError):
    code = "degree-mismatch"


class ParseError(SymclassError):
    code = "parse-error"


class InvalidGraph(SymclassError):
    code = "bad-graph"


class Graph6Error(SymclassError):
    code = "bad-graph6"


class DisconnectedGraph(SymclassError):
    code = "disconnected-graph"


class IrregularGraph(SymclassError):
    code = "irregular-graph"


class CompleteGraphError(SymclassError):
    code = "complete-graph"


class InvariantCellError(SymclassError):
    code = "not-invariant-cells"


class NotAnAutomorphismGroup(SymclassError):
    code = "not-an-automorphism-group"


class IntransitiveGroup(SymclassError):
    code = "intransitive-group"


class SizeCapExceeded(SymclassError):
    code = "size-cap-exceeded"


class BudgetExceeded(SymclassError):
    code = "budget-exceeded"


class ParameterError(SymclassError):
    code = "bad-parameter"


class UnknownFamily(SymclassError):
    code = "unknown-family"


class UnknownClaim(SymclassError):
    code = "unknown-claim"


class InternalCheckFailed(SymclassError):
    """Two independent computations of the same fact disagree: a defect in
    the library, not in the input."""

    code = "internal-check-failed"
