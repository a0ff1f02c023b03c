"""Exception types: a SolvsphError refuses input, a failed self-check is an AssertionError."""


class SolvsphError(Exception):
    """Refused input (a config, key, weight or option), or the NotSpherical verdict."""


class InvalidType(SolvsphError):
    """Inadmissible simple type / rank combination."""


class ZeroRoot(SolvsphError):
    """The zero vector was passed where a root is required."""


class NotDominant(SolvsphError):
    """A dominant weight was required."""


class AlgebraMismatch(SolvsphError):
    """Elements or modules belong to different algebras."""


class NotBasisKey(SolvsphError, ValueError):
    """A key that names no basis vector of the algebra, a non-root among them;
    also a ValueError, as a vector that is not a root is one."""


class NonIntegralWeight(SolvsphError):
    """A character of the maximal torus (integer coordinates) was required."""


class NotSubalgebra(SolvsphError):
    """The prescribed nilpotent part is not closed under the bracket.

    Carries a witness pair of basis elements whose bracket escapes.
    """

    def __init__(self, witness_x, witness_y):
        self.witness = (witness_x, witness_y)
        super().__init__(f"bracket of {witness_x} and {witness_y} leaves the subalgebra")


class MixedWeightConstraint(SolvsphError):
    """A constraint group mixes roots with different torus weights."""


class DuplicateRoot(SolvsphError):
    """A root appears twice among the constraint groups."""


class NonSurjectiveTau(SolvsphError):
    """The torus restriction matrix is not onto over the integers."""


class ZeroCoefficient(SolvsphError):
    """A constraint coefficient is zero."""


class NotSpherical(SolvsphError):
    """The subgroup fails the sphericity criterion."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"not spherical: {self.violations}")


class NoValidCandidate(AssertionError):
    """Self-check: no simple root satisfies the anchor property."""


class MultipleCandidates(AssertionError):
    """Self-check: several simple roots satisfy the anchor property."""


class AxiomViolation(AssertionError):
    """Self-check: an active-root consistency check failed.

    Carries a witness describing the failing instance.
    """

    def __init__(self, check, witness):
        self.check = check
        self.witness = witness
        super().__init__(f"{check}: {witness}")


class DimensionCap(SolvsphError):
    """A module would exceed the configured dimension cap."""

    def __init__(self, predicted, cap):
        self.predicted = predicted
        self.cap = cap
        super().__init__(f"module dimension {predicted} exceeds cap {cap}")


class ConfigParseError(SolvsphError):
    """A job configuration failed to parse; carries the line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
