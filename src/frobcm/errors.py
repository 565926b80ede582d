"""Shared failure types."""


class AuditFailure(RuntimeError):
    """A self-check that must hold by construction did not.

    Raised instead of returning a possibly wrong count when an enumeration
    bound or accounting identity fails its runtime audit.
    """


class Refusal(ValueError):
    """A layer declines to compute at this input: the route, index sets or
    work budget it needs do not cover it.  ``verify`` reports it as a
    passing skipped row that gives the reason; anything else is an error."""
