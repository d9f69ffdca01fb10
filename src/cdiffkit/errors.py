"""Exception types raised across the library."""


class CdiffkitError(Exception):
    """Base class for all library errors."""


# field construction / arithmetic

class NonPrimeCharacteristic(CdiffkitError):
    """p is not a prime number."""


class ReducibleModulus(CdiffkitError):
    """The supplied modulus polynomial factors over F_p."""


class DegreeMismatch(CdiffkitError):
    """Modulus is not monic of the requested degree."""


class DivisionByZero(CdiffkitError, ZeroDivisionError):
    """Inverse, negative power or logarithm of the zero element."""


class NonDivisorSubfieldDegree(CdiffkitError):
    """Relative trace requested onto GF(p^g) with g not dividing n."""


# function tables

class InvalidExponent(CdiffkitError):
    """Monomial exponent d = 0 is rejected (0^0 is ambiguous)."""


class EmptyPolynomial(CdiffkitError):
    """Polynomial constructor received no coefficients at all."""


class SchemaViolation(CdiffkitError):
    """Serialized function table does not match the file schema."""


class RankOutOfRange(CdiffkitError):
    """A stored value rank falls outside [0, q)."""


class FieldMismatch(CdiffkitError):
    """Loaded table belongs to a different field than expected."""


# c-differential / Walsh engines

class DegenerateCs(CdiffkitError):
    """Cross-solution check needs two distinct nonzero c values."""


class NotRationalInteger(CdiffkitError):
    """A cyclotomic value expected to be a rational integer is not."""


class SizeGuardExceeded(CdiffkitError):
    """Requested computation exceeds a size bound of the library (field
    tables, dense DDT, Walsh arrays, int64 transform range); raised before
    the work is done."""


class WitnessMismatch(CdiffkitError):
    """A uniformity value disagrees with a direct recount of its witness
    row (library bug)."""


# number theory

class SubfieldEdgeCase(CdiffkitError):
    """Trinomial solver with k a multiple of n; the recursion does not apply."""


class FormulaMismatch(CdiffkitError):
    """Closed-form gcd disagrees with the direct integer gcd (library bug)."""


# theorem suite

class UnknownClaim(CdiffkitError):
    """Claim identifier outside T0..T9."""
