"""Exception hierarchy. Every structural failure carries a witness."""


class VqError(Exception):
    pass


class ParseError(VqError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownBuiltin(VqError):
    pass


class MonoidSpecInvalid(VqError):
    pass


class QuantaleError(VqError):
    """Base for quantale axiom violations; `witness` names the offending elements."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPartialOrder(QuantaleError):
    pass


class NotALattice(QuantaleError):
    pass


class NotAssociative(QuantaleError):
    pass


class NotCommutative(QuantaleError):
    pass


class WrongUnit(QuantaleError):
    pass


class NotJoinPreserving(QuantaleError):
    pass


class VCatError(VqError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ReflexivityFail(VCatError):
    pass


class TransitivityFail(VCatError):
    pass


class QuantaleMismatch(VqError):
    pass


class BoundaryMismatch(VqError):
    pass


class NotSeparated(VqError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCocomplete(VqError):
    """Raised when a presheaf has no supremum; carries the failing presheaf."""

    def __init__(self, message, failing=None):
        super().__init__(message)
        self.failing = failing


class NotCocompleteInput(VqError):
    pass


class NoSuchColimit(VqError):
    def __init__(self, message, weight=None):
        super().__init__(message)
        self.weight = weight


class NotCCD(VqError):
    """Carries the object with no totally-below presheaf."""

    def __init__(self, message, obj=None):
        super().__init__(message)
        self.obj = obj


class SizeExceeded(VqError):
    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate
