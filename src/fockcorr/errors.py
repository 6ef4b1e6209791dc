"""Shared exception types.

Exit codes of the CLI (``cli.main``), class by class:

    =====================  ====  ===================================
    class                  code  meaning
    =====================  ====  ===================================
    (none raised)          0     success; every identity passes
    InternalCheckError     1     failed verification
    PoleError              3     pole-guard violation
    ResourceLimitError     4     resource limit
    LabelError             2     usage error
    ModeMismatchError      2     usage error
    NonUnitError           2     usage error
    InexactDivisionError   2     usage error
    ValueError             2     usage error (bad argument value)
    any other Exception    5     internal error (a bug; no traceback)
    BrokenPipeError        141   stdout closed by its reader (quiet)
    =====================  ====  ===================================

A ``verify`` run whose identity reports a mismatch also exits 1; malformed
flags and an unknown ``verify`` identity exit 2.  141 is the status a shell
reports for a process that SIGPIPE stops.
"""


class FockcorrError(Exception):
    """Base class for all package errors."""


class ModeMismatchError(FockcorrError):
    """Arithmetic between series/coefficients of different ring modes."""


class NonUnitError(FockcorrError):
    """Inversion of a coefficient that is not a unit of its ring."""


class InexactDivisionError(FockcorrError):
    """Laurent division left a nonzero remainder."""


class PoleError(FockcorrError):
    """Evaluation at a pole (t = 1, s = 0, or a vanishing theta argument)."""


class ResourceLimitError(FockcorrError):
    """State enumeration exceeded the configured budget."""


class LabelError(FockcorrError):
    """Module label violates the constraints of its label set."""


class InternalCheckError(FockcorrError):
    """Two independently computed forms of the same quantity disagree."""
