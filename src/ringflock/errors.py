"""Exception types raised across the ringflock modules."""


class RingflockError(Exception):
    """Base class for every error raised by this package."""


# -- parameter model ---------------------------------------------------------

class BadAgentCount(RingflockError):
    """The ring needs at least three agents."""


class RowSumViolation(RingflockError):
    """Coupling weights do not sum to zero within tolerance."""


class ZeroCenterWeight(RingflockError):
    """Normalization requires nonzero center weights."""


# -- spectral ----------------------------------------------------------------

class DegenerateBranches(RingflockError):
    """Both roots of a nonzero mode are real, so the imaginary-sign
    branch labels are undefined."""


class NonpositiveExpansionConstant(RingflockError):
    """The long-wave expansion constant I_v1^2/4 + I_x2/2 is not positive."""


class TooLarge(RingflockError):
    """Dense eigensolve refused above the size cap."""


class EmptySet(RingflockError):
    """Hausdorff distance needs two nonempty point sets."""


# -- stability ---------------------------------------------------------------

class NotNearestNeighbor(RingflockError):
    """Operation is only defined for the {-1, 0, +1} neighborhood."""


class ZeroMode(RingflockError):
    """The m = 0 mode carries the coherent double zero and is excluded."""


class GateWouldPass(RingflockError):
    """Witness search requested for parameters that already pass the
    closed-form stability gate."""


# -- wavefield ---------------------------------------------------------------

class UnstableParams(RingflockError):
    """Operation requires parameters that pass the closed-form gate."""


class NotNormalized(RingflockError):
    """Operation requires center weights rescaled to 1."""


class DegenerateMode(RingflockError):
    """A nonzero mode has (numerically) coincident branch eigenvalues,
    so the 2x2 modal system is singular."""


class BadExponents(RingflockError):
    """Band exponents need 0 < alpha < beta < 1 and finite K, p > 1."""


class NoDecayFit(RingflockError):
    """All modal coefficients vanish; no power-law envelope exists."""


class EmptyTimeWindow(RingflockError):
    """The two traveling-wave observation windows do not intersect."""


# -- simulation --------------------------------------------------------------

class StepTooLarge(RingflockError):
    """Time step violates the explicit-scheme stability heuristic."""


class NonfiniteState(RingflockError):
    """Integration produced non-finite values (divergence or bad dt)."""


# -- CLI ---------------------------------------------------------------------

class ConfigError(RingflockError):
    """Malformed configuration file."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
