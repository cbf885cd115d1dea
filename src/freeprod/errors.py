"""Exception hierarchy shared by all freeprod modules."""


class FreeprodError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FreeprodError):
    """Invalid input data (factor or problem specification)."""


class MassMismatch(ValidationError):
    """Atom masses plus diffuse mass do not sum to 1."""


class NonPositiveMass(ValidationError):
    """An atom mass or diffuse mass outside its legal range."""


class DuplicateLabel(ValidationError):
    """Two atoms in the same factor share a label."""


class DomainError(FreeprodError):
    """Argument outside the mathematical domain of an operation."""


class LimitExceeded(FreeprodError):
    """Requested order or output size exceeds a fixed cap."""


class DimensionError(FreeprodError):
    """Matrix dimension too small or incompatible with the requested ranks."""


class DegenerateProblem(FreeprodError):
    """Fewer than two effective free-product factors."""


class RefusedTwoProjectionCase(FreeprodError):
    """Both factors are two-point algebras; use the two-projection module."""


class TailUndecidable(FreeprodError):
    """Tail data is insufficient to decide membership in the boundary set."""
