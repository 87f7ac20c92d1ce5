"""Exception types shared across the engine."""


class OrecalcError(Exception):
    """Base class for all errors raised by orecalc."""


class ZeroPolynomial(OrecalcError):
    """An operation that requires a nonzero polynomial got zero."""


class DegreeOverflow(OrecalcError):
    """A monomial's total degree would pass `arith.MAX_DEGREE`."""


class UnknownVariable(OrecalcError):
    """A symbol is not a ground variable or parameter of the algebra."""


class AlgebraMismatch(OrecalcError):
    """Two operands live in different algebras or rings."""


class KindMismatch(OrecalcError):
    """A generator does not have the operator kind required here."""


class NotZeroDimensional(OrecalcError):
    """The ideal must be zero-dimensional for this construction."""


class NotDifferenceDifferential(OrecalcError):
    """The algebra is not difference-differential."""


class BadWindow(OrecalcError):
    """A growth window is too short for the exponent fit."""


class NonlinearAlgebra(OrecalcError):
    """A generator kind does not admit the linear-extension product rule."""


class MultipleTelescopingVars(OrecalcError):
    """This search handles a single telescoping variable only."""


class NoTelescopableVariable(OrecalcError):
    """No designated generator admits a telescoping witness."""


class OutOfDomain(OrecalcError):
    """A sequence oracle was evaluated outside its declared domain."""


class NonDiscreteAlgebra(OrecalcError):
    """Numeric operator application needs shift/difference generators only."""


class ProblemSyntaxError(OrecalcError):
    """Problem-file parse error with source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "%d:%d: %s" % (line, col, message)
        super().__init__(message)


class UnknownName(ProblemSyntaxError):
    """A problem file refers to a name that was never declared."""


class KindError(ProblemSyntaxError):
    """A problem file uses a generator kind outside the catalog."""
