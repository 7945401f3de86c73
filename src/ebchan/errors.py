"""Exception types raised by the library, one per exit code of the CLI.

Every library error is an EbchanError, and is one of two kinds:

* ValidationError (also a ValueError): the input is at fault, such as a
  malformed document, a non-PSD effect or an r above the enumeration cap;
  the CLI exits 2;
* ConsistencyError: a cross-check that holds by theory failed numerically,
  or a numerical solve failed; the CLI exits 1.

The message names the offending pair or entry where there is one, e.g.
"F[0] is not PSD" or "pairs[1].R: row 0 is not a nonempty list".
"""

__all__ = ["ConsistencyError", "EbchanError", "ValidationError"]


class EbchanError(Exception):
    """Base class for all library errors."""


class ValidationError(EbchanError, ValueError):
    """Input failed a structural or numerical validity check."""


class ConsistencyError(EbchanError):
    """An internal cross-check or a numerical solve failed."""
