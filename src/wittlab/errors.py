"""Exception types shared across the package.

Every failure mode a caller is expected to branch on gets its own class.
Messages should quote the offending values, since suite reports repeat them
verbatim; a refusal quotes the text or value it refuses through
``_quoted``, so that its message stays one short line however long the
text is.
"""

# the most characters of a refused text that a message quotes
_QUOTE_LIMIT = 40


def _quoted(value) -> str:
    """``repr(value)``, or for a longer text the repr of its first
    ``_QUOTE_LIMIT`` characters followed by the text's length.  Any other
    value, such as a number or a JSON list, is cut the same way in its
    repr."""
    if not isinstance(value, str):
        text = repr(value)
        if len(text) <= _QUOTE_LIMIT:
            return text
        return f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"
    if len(value) <= _QUOTE_LIMIT:
        return repr(value)
    return f"{value[:_QUOTE_LIMIT]!r}... ({len(value)} characters)"


def _cut(text: str) -> str:
    """``text`` itself up to ``_QUOTE_LIMIT`` characters, else
    ``_quoted(text)``: for a token that a message prints bare."""
    return text if len(text) <= _QUOTE_LIMIT else _quoted(text)


class WittError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatch(WittError):
    """Operands belong to different rings (or a ring of the wrong kind)."""


class LengthMismatch(WittError):
    """Vector operands have different lengths, or a length-0 vector was given
    where at least one component is required."""


class CapabilityMissing(WittError):
    """The ring does not support the requested operation (no p-torsion-free
    cover, no mod-p root search, structure polynomials beyond the cached
    range, and so on)."""


class NotDivisible(WittError):
    """An exact division by p failed."""


class PrecisionExhausted(WittError):
    """A truncated element ran out of significant digits (budget reached 0)."""


class IntegralityViolation(WittError):
    """A value that is provably integral came out non-integral; this always
    indicates a bug or a misuse, so it is never caught internally."""


class DepthExceeded(WittError):
    """A coherent sequence was asked for more levels than it carries."""


class InsufficientDepth(WittError):
    """The requested precision needs more levels than the input provides."""


class NoRoot(WittError):
    """No p-th root exists (mod p, or exactly, depending on context)."""


class RescaleInfeasible(WittError):
    """No scaling window of the required width exists within the available
    tower levels."""


class NotEnumerable(WittError):
    """An exhaustive search domain is too large to enumerate."""


class MalformedConfig(WittError):
    """A ring or suite configuration could not be parsed."""


class UnknownSuite(WittError):
    """The requested verification suite does not exist."""


class BOutOfRange(WittError):
    """The overconvergence parameter b lies outside the admissible range."""
