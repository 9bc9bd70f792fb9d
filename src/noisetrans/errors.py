"""Exception hierarchy shared by all modules, and the process exit codes.

Each class holds in `exit_code` the code the command line exits with when
a run ends with that error; a run that succeeds exits 0.

    2  ArgumentError: a caller-supplied argument is invalid
    3  ParseError, FormatError, ContractError, DegenerateError, and any
       OSError (missing file, a directory given as a file, no permission)
    4  NumericError
"""


class NoiseTransError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ArgumentError(NoiseTransError):
    """A caller-supplied argument violates a precondition (bad shape, bad k, ...)."""

    exit_code = 2


class IndexRangeError(ArgumentError, IndexError):
    """An index array addresses rows that do not exist."""


class ParseError(NoiseTransError):
    """A file could not be parsed; the message carries the location."""

    exit_code = 3


class FormatError(NoiseTransError):
    """A file parsed but its content violates the format contract."""

    exit_code = 3


class ContractError(NoiseTransError):
    """Data handed between components is inconsistent (manifest/weights mismatch)."""

    exit_code = 3


class DegenerateError(NoiseTransError):
    """Geometrically degenerate input (zero scale, zero area, ...)."""

    exit_code = 3


class NumericError(NoiseTransError):
    """A non-finite value appeared where the numerics contract forbids it."""

    exit_code = 4
