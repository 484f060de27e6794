"""Exception types raised across the package."""


class PcattackError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(PcattackError):
    """Input is not a finite real matrix of the required shape."""


class InvalidDimension(PcattackError):
    """A dimension argument (k, vector length, ...) is out of range."""


class RankMismatch(PcattackError):
    """The numerical rank of the input differs from the one required."""


class RegimeError(PcattackError):
    """The requested attack has no applicable regime for this input."""


class NoOrthogonalComplement(RegimeError):
    """d = n leaves no direction orthogonal to the column space."""


class ParseError(PcattackError):
    """A CSV or key-value input file is malformed."""


class UndefinedR2(PcattackError):
    """R-squared is undefined because the reference values are constant."""


class SingularFit(PcattackError):
    """The regression normal equations are numerically singular."""
