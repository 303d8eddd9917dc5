"""Exception types shared across the package."""


class AbwsclError(Exception):
    """Base class for every error raised by this package."""


# --- term algebra ---------------------------------------------------------

class OverlappingReceptionists(AbwsclError):
    pass


class AddressOverlap(AbwsclError):
    pass


class InvalidRestriction(AbwsclError):
    pass


class NotBijective(AbwsclError):
    pass


# --- rewrite engine -------------------------------------------------------

class NotRunning(AbwsclError):
    pass


class NoNextEvent(AbwsclError):
    pass


class NotBlockedPair(AbwsclError):
    pass


class GuardRejected(AbwsclError):
    """A deliver carried a method call whose guard is false.

    The message is left pending; it may be retried after the actor's
    state changes.
    """


class UnknownActor(AbwsclError):
    pass


class UnknownMethod(AbwsclError):
    pass


class SilentDivergence(AbwsclError):
    """Internal step budget exhausted without reaching a stable state."""


# --- kind-specific rules --------------------------------------------------

class NotSameWSO(AbwsclError):
    pass


class UnknownTarget(AbwsclError):
    pass


class TargetIsLocal(AbwsclError):
    pass


class NoPendingMessage(AbwsclError):
    pass


class NotAReceptionist(AbwsclError):
    pass


class NotEnabledForCreate(AbwsclError):
    pass


class WSOAlreadyBound(AbwsclError):
    pass


class PartnersAlreadyCreated(AbwsclError):
    pass


class FreshnessViolation(AbwsclError):
    pass


class SelfPartner(AbwsclError):
    pass


# --- surface language -----------------------------------------------------

class ParseError(AbwsclError):
    """Source could not be parsed; carries line/column and expectation,
    and the file's path when the source was read from one."""

    def __init__(self, message: str, line: int, col: int, path=None):
        where = f"{line}:{col}" if path is None else f"{path}:{line}:{col}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ArityMismatch(AbwsclError):
    pass


class EvalTypeError(AbwsclError):
    """An expression was applied to operands of the wrong shape."""


class UnknownName(AbwsclError):
    pass


# --- interaction checker --------------------------------------------------

class BoundaryMismatch(AbwsclError):
    pass


# --- exporters ------------------------------------------------------------

class NotAWS(AbwsclError):
    pass


class NotAWSO(AbwsclError):
    pass


class NotAWSC(AbwsclError):
    pass


class RoleCountMismatch(AbwsclError):
    pass


class UnorderableBody(AbwsclError):
    """Causality analysis found a cycle, so no activity sequence exists."""
