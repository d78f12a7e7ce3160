"""Exception types shared across the package."""


class DiskModError(Exception):
    """Base class for every error raised by this package."""


class InvalidFunction(DiskModError, ValueError):
    """A function representation violates a construction invariant."""


class FunctionParseError(DiskModError, ValueError):
    """A function literal could not be parsed."""

    def __init__(self, message, token=None):
        self.token = token
        super().__init__(message)


class PointOutsideDomain(DiskModError, ValueError):
    """An evaluation point lies outside the allowed domain."""


class DegeneratePoint(DiskModError, ArithmeticError):
    """Both multiplier components (numerically) vanish at a point."""

    def __init__(self, point, value):
        self.point = complex(point)
        self.value = float(value)
        super().__init__(
            f"|theta1|^2 + |theta2|^2 = {self.value:.3e} at z = {self.point}: "
            "below the degeneracy threshold"
        )


class CoronaFailure(DiskModError):
    """Certification failed: a point with a near-vanishing modulus sum was found.

    ``witness`` is that point and ``value`` is u there.  ``common_zero`` is
    True when the witness is a common zero of the numerators, found from
    their GCD, and False when the search descended to a point where u is
    merely below ten times the target.
    """

    def __init__(self, witness, value, common_zero=False):
        self.witness = complex(witness)
        self.value = float(value)
        self.common_zero = bool(common_zero)
        super().__init__(
            f"corona certification failed: u({self.witness}) = {self.value:.3e}"
        )


class DepthExceeded(DiskModError):
    """Subdivision hit the depth (or box budget) cap without a decision.

    Carries the best certified lower bound found so far and the center of the
    box that could not be cleared; the caller decides what to do with them.
    """

    def __init__(self, best_bound, witness, value):
        self.best_bound = float(best_bound)
        self.witness = complex(witness)
        self.value = float(value)
        super().__init__(
            f"subdivision cap reached; best lower bound {self.best_bound:.3e}, "
            f"worst box center {self.witness}"
        )


class UncertifiedSpec(DiskModError):
    """A quotient spec was used before corona certification."""


class NoSpectralGap(DiskModError):
    """A kernel count is not proved.

    The band pencil counts a different number of singular values below the
    upper threshold than below a tenth of the lower one, so the singular
    values may not fall apart by a factor 10 around the threshold; or a
    threshold lies inside the rounding margin; or G = N^H N of the quotient
    frame N is not proved positive definite, because N is rank-deficient or
    G too ill-conditioned for double precision.
    """


class _RangeError(ValueError):
    """A field value out of range; ``key`` names the field, so that a problem
    file can report the line that set it."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(message)


class SpecFileError(DiskModError, ValueError):
    """A problem spec file is malformed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
