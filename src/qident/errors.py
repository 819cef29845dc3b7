"""Exception types shared across the package."""


class QidentError(Exception):
    """Base class for all package-specific errors."""


# -- series ----------------------------------------------------------------

class EmptySeries(QidentError):
    """Attempted to divide by (or take the valuation of) the zero series."""


class NotAUnit(QidentError):
    """A divisor's lowest coefficient does not divide a quotient step."""


class PrecisionExceeded(QidentError):
    """Queried a coefficient at or above the truncation order."""


# -- qfunctions ------------------------------------------------------------

class NegativeIndex(QidentError):
    """Finite Pochhammer with negative index is out of scope."""


class Divergent(QidentError):
    """Infinite product with non-positive base step does not truncate."""


class OutOfRange(QidentError):
    """Argument outside the documented domain (e.g. a triple product residue
    A outside 0 < A < M)."""


class DegenerateTheta(QidentError):
    """Triple product with A = 0 (mod M): the product vanishes identically."""


# -- bailey ----------------------------------------------------------------

class PoleAtParameter(QidentError):
    """Bailey pair parameter makes a defining denominator vanish."""


class DegenerateDivision(QidentError):
    """A transform would divide by a non-invertible series (e.g. 1 - a at a = 1)."""


class NotStabilized(QidentError):
    """beta_limit: n_max too small for the requested truncation order."""


class ParameterOutOfRange(QidentError):
    """A lattice-consequence check, or gamma_map, called outside its
    parameter domain."""


class UnsupportedBoundary(QidentError):
    """check_coro3 boundary combination outside the supported set."""


class InsufficientDepth(QidentError):
    """n_max too small: truncated multisum would need beta values beyond n_max."""


# -- identities / sets -----------------------------------------------------

class InvalidParameters(QidentError):
    """Identity parameters violate the catalog validity predicate."""


class CatalogRangeError(QidentError):
    """Product-side exponent excursion outside [0, M]: catalog transcription bug."""


class KindMismatch(QidentError):
    """Membership test got an object of the wrong kind for the family."""


class NotAMember(QidentError):
    """phi/pi applied to a sequence outside its domain set."""


# -- motion ----------------------------------------------------------------

class PreconditionViolated(QidentError):
    """Particle-motion precondition (dominance / frame form) fails."""
