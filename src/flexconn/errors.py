"""Exception types shared across the solver stack."""


class FlexconnError(Exception):
    """Base class for all library errors."""


class InvalidQueryError(FlexconnError):
    """A query violated an operation precondition (e.g. s == t in a flow query)."""


class UnknownEdgeError(FlexconnError):
    """An edge id does not exist in the graph at hand."""


class ValidationError(FlexconnError):
    """Structurally readable input with inconsistent or out-of-range content."""


class ParseError(FlexconnError):
    """A document does not follow the expected file format."""

    def __init__(self, message, *, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class WrongRegimeError(FlexconnError):
    """A reduction was invoked on demands outside its supported regime."""


class UnsupportedInstanceError(FlexconnError):
    """The instance shape is recognized but deliberately not solved."""


class InfeasibleInstanceError(FlexconnError):
    """No feasible solution exists; carries a witness where available."""

    def __init__(self, message, *, pair=None, cut=None):
        super().__init__(message)
        self.pair = pair
        self.cut = cut


class GuardExceededError(FlexconnError):
    """An enumeration guard tripped; the query is too large to answer exactly."""


class LpInfeasibleError(FlexconnError):
    """A generated row asks for more than the edges it names can give."""

    def __init__(self, message, *, row=None):
        super().__init__(message)
        self.row = row


class LpResourceError(FlexconnError):
    """An LP iteration or row cap was exceeded."""


class OracleContractError(FlexconnError):
    """A separation oracle returned a cut that is not actually violated."""


class JainProgressError(FlexconnError):
    """An LP vertex had no undecided edge at or above the rounding threshold."""


class OracleRefusalError(FlexconnError):
    """The exact-optimum search would exceed its budget; no answer is returned."""


class SolverError(FlexconnError):
    """A solver produced output that failed its own exact verification."""
