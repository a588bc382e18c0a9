"""Exception types shared across the library."""


class GcecError(Exception):
    """Base class for every error raised by this package."""


class UnknownGroup(GcecError):
    """Requested group name (or kind) is not in the catalog."""


class DimensionZero(GcecError):
    """A Hilbert-space or irrep dimension below 1 was requested."""


class ParityError(GcecError):
    """so(3) only has odd-dimensional unitary irreps."""


class UnknownIrrepIndex(GcecError):
    """A representation label refers to an irrep index outside the catalog."""


class DimMismatch(GcecError):
    """Operands have incompatible matrix dimensions."""


class LengthMismatch(GcecError):
    """A vector does not have the expected length."""


class NotTracePreserving(GcecError):
    """A Kraus set expected to be trace preserving is not, within tolerance."""


class BadTolerance(GcecError):
    """A tolerance is NaN or outside the range where it means anything."""


class BadSeed(GcecError):
    """A random seed is not a non-negative integer."""


class SchemaError(GcecError):
    """A JSON payload does not match the expected schema."""


class ReducibleInput(GcecError):
    """An input part of a covariant family is reducible, or equivalent to a
    part of different content, so trace preservation has no closed form."""
