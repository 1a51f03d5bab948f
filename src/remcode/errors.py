"""Exception types raised by the library.

Decoding failures on well-formed inputs are *not* exceptions: the decoder
reports them through its outcome value.  Exceptions signal violated
preconditions, malformed construction parameters, or broken promises
(e.g. a divisor that was promised to divide exactly but does not).
"""


class RemcodeError(Exception):
    """Base class for all library errors."""


# -- field construction / arithmetic ----------------------------------------

class NonPrimeCharacteristic(RemcodeError):
    pass


class ReducibleModulus(RemcodeError):
    """The field reduction polynomial factors over the prime field."""


class DegreeMismatch(RemcodeError):
    """Reduction polynomial missing, not monic, or of the wrong degree."""


class ZeroInverse(RemcodeError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class SpecMismatch(RemcodeError):
    """Operands belong to different fields or different code specs."""


# -- polynomials -------------------------------------------------------------

class DivisionByZeroPoly(RemcodeError, ZeroDivisionError):
    pass


class BothZero(RemcodeError):
    """gcd(0, 0) requested."""


class ConstantInput(RemcodeError):
    """Irreducibility is only defined for polynomials of degree >= 1."""


# -- code construction / encoding --------------------------------------------

class NonMonicModulus(RemcodeError):
    pass


class NonCoprimeModuli(RemcodeError):
    def __init__(self, i: int, j: int):
        super().__init__(f"moduli {i} and {j} share a nontrivial factor")
        self.pair = (i, j)


class BadK(RemcodeError):
    pass


class MessageTooLarge(RemcodeError):
    """Message degree is not below the code dimension."""


class ResidueDegreeViolation(RemcodeError):
    """A symbol's degree reaches its modulus degree."""


class UnorderedDegrees(RemcodeError):
    """Operation requires moduli sorted by nondecreasing degree."""


# -- interpolation ------------------------------------------------------------

class InsufficientSupport(RemcodeError):
    """Known positions carry less degree weight than the code dimension."""


class InconsistentResidues(RemcodeError):
    """Known symbols do not all come from one codeword."""


class ErasureBudgetExceeded(RemcodeError):
    """Erased degree weight exceeds the code redundancy."""


class NonDivisible(RemcodeError):
    """A promised exact polynomial division left a remainder."""


class MessageDegreeOverflow(RemcodeError):
    """A recovered message candidate has degree >= the code dimension."""


# -- gcd decoding --------------------------------------------------------------

class DegreePreconditionViolated(RemcodeError):
    """gcd routine inputs must satisfy deg(first) > deg(second)."""


class ZeroG(RemcodeError):
    """Factor test requires a nonzero test polynomial."""


class CandidateExplosion(RemcodeError):
    """Candidate locator enumeration exceeds the configured cap."""


# -- oracle / simulator ----------------------------------------------------------

class SearchSpaceTooLarge(RemcodeError):
    """An exhaustive scan or irreducible sieve would enumerate more than its cap allows."""


class InfeasibleWeight(RemcodeError):
    """No error pattern with the requested weight exists for this code."""


class ParseError(RemcodeError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
