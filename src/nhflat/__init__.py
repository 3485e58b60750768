"""Invariant nearly half-flat SU(3)-structures on S3 x S3.

The package is organised around a small exterior-algebra engine over the
fixed left-invariant coframe e1..e6 (``exterior``), the matrix
parameterization of the structures (``structure``), torsion extraction and
classification (``torsion``), closed-form solution families (``families``)
and the evolution flow lifting them to nearly parallel G2-structures
(``flow``).

The names below are loaded on first access (PEP 562), so ``import nhflat``
imports none of the modules, and numpy only where a name needs it.
"""

import importlib

__version__ = "0.1.0"

# name -> the module that defines it
_ORIGIN = {
    "Form": "exterior",
    "wedge": "exterior",
    "d": "exterior",
    "NhfStructure": "structure",
    "ValidationReport": "structure",
    "StructureError": "structure",
    "InvalidStructureError": "structure",
    "SingularStructureError": "structure",
    "sample_random_structure": "structure",
    "TorsionData": "torsion",
    "ClassReport": "torsion",
    "extract_torsion": "torsion",
    "classify": "torsion",
    "scalar_curvature": "torsion",
    "w1_plus": "torsion",
    "rotate_to_half_flat": "torsion",
    "Trajectory": "flow",
    "FlowSingularityError": "flow",
    "integrate": "flow",
    "g2_residual": "flow",
    "families": None,
    "flow": None,
}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _ORIGIN[name]
    if module is None:  # a submodule
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
