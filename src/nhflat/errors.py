"""The errors of structure construction and validation.

They have a module of their own because the generated kernels of
``nhflat._kernels`` raise them and `structure`, which re-exports them,
imports those kernels: neither module can import the other first."""


class StructureError(ValueError):
    """Base error for structure construction and validation."""


class SingularStructureError(StructureError):
    """det P is (numerically) zero; the parameterization degenerates."""


class InvalidStructureError(StructureError):
    """The parameters violate the validity constraints beyond tolerance."""
