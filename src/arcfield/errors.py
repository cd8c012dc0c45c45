"""Exception types shared across the package, and the formatter of the
numbers in their messages."""


def message_number(x) -> str:
    """``x`` as text for an error message, which composing never raises.

    Past the interpreter's limit on the digits of an integer converted to
    text, the count of the digits stands in for them.
    """
    try:
        return str(x)
    except ValueError:
        digits = sum(_digit_count(n) for n in (x.numerator, x.denominator) if n != 1)
        return f"<a number of {digits} digits>"


def _digit_count(n: int) -> int:
    """Decimal digits of a nonzero integer, without converting it to text."""
    n = abs(n)
    k = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # never too many
    while 10**k <= n:
        k += 1
    return k


class ArcFieldError(Exception):
    """Base class for every error raised by this package."""


class ZeroUpToTruncationError(ArcFieldError):
    """An operation needed a leading term, but none is known below the truncation."""

    def __init__(self, trunc=None, message=None):
        self.trunc = trunc
        super().__init__(message or f"series is zero up to truncation {message_number(trunc)}")


class IndistinguishableAtTruncation(ArcFieldError):
    """All known coefficients agree; the question is undecidable at this truncation."""


class RamificationOverflow(ArcFieldError):
    """An operation would require a ramification index above the configured cap."""

    def __init__(self, ram, cap):
        super().__init__(f"ramification {message_number(ram)} exceeds cap {message_number(cap)}")


class IrrationalLeadingRoot(ArcFieldError):
    """Exact mode cannot represent the required root of a leading coefficient."""


class NonPositiveValuationSubstitution(ArcFieldError):
    """Substitution requires the inner series to vanish at 0+ (positive order)."""


class UnboundedExpansion(ArcFieldError):
    """The result is an infinite series and no target truncation was supplied,
    or the target needs more terms than memory holds."""


class TruncationExhausted(ArcFieldError):
    """Input coefficients are known to too low an order to decide the next step."""


class IrrationalBranch(ArcFieldError):
    """Exact mode found no rational root for a Newton polygon edge equation."""


class FloatOverflow(ArcFieldError):
    """Numeric mode met a value outside the range of a 64-bit float."""


class BranchNotCertified(ArcFieldError):
    """A computed root branch leaves a residual term below the target order."""


class DigitLimitExceeded(ArcFieldError):
    """A number has more digits than the interpreter converts to text."""


class NoRealBranch(ArcFieldError):
    """No real series branch solves the given equation."""


class UnsupportedShape(ArcFieldError):
    """The system is not univariate or triangular, so preimage solving declines."""


class ZeroArc(ArcFieldError):
    """The arc is identically zero and cannot be lifted through the blow-up."""


class GuardViolation(ArcFieldError):
    """A division or even-root guard failed: at a float point during map
    evaluation, or in the series kernel's powers (a zero base under a
    negative exponent, an even root of a negative lead)."""


class NegativeBaseForEvenRoot(GuardViolation):
    """Even-denominator rational power of a series whose known leading
    coefficient is negative, so that it is negative near 0+."""


class DegenerateData(ArcFieldError):
    """A fit received no usable samples."""


class CounterexampleFound(ArcFieldError):
    """A transfer check found a witness violating the claimed property."""

    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"{kind}: counterexample found")


class ConfigError(ArcFieldError):
    """Invalid run configuration."""


class ParseError(ArcFieldError):
    """Input text rejected, with a byte span into the offending input."""

    def __init__(self, start, end, expected, found, text=""):
        self.start = start
        self.end = end
        self.expected = expected
        self.found = found
        self.text = text
        super().__init__(f"at byte {start}..{end}: expected {expected}, found {found}")


class DuplicateExponent(ParseError):
    """The same exponent appeared twice in a series literal."""


class UnknownVariable(ParseError):
    """An identifier is not in the declared variable list."""


class NonRationalExponent(ParseError):
    """Exponents must be integers or parenthesized integer fractions."""
