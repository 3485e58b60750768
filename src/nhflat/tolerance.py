"""The tolerance policy of every verdict: a residual divided by the size
of the terms it compares (`relative`), at most `DEFAULT_TOL` by default.

Plain Python: numbers, lists and forms are read without numpy, and an
array is read with the numpy that made it.  `exterior` re-exports these
names."""

from __future__ import annotations

#: Default bound on the relative residuals of every verdict (see `relative`).
DEFAULT_TOL = 1e-9


def max_abs(x) -> float:
    """Largest |entry| of a number, list, array or form; NaN if any entry
    is NaN.  Entries may be complex, and |entry| is then the modulus, a
    float."""
    if type(x) is float:
        return abs(x)
    if type(x) is list:
        # max() keeps a NaN only when it comes first; a sum of magnitudes
        # is NaN exactly when an entry is
        mags = list(map(abs, x))
        total = sum(mags)
        return total if total != total else max(mags)
    x = getattr(x, "coeffs", x)  # a form's coefficient vector
    if getattr(x, "ndim", 0):
        # np.max without its Python-level dispatch; NaN propagates the same
        import numpy as np

        return float(np.maximum.reduce(np.abs(x), axis=None))
    return float(abs(x))


def badness(residual: float) -> tuple:
    """The key under which max() picks the worst residual: NaN ranks above
    every number, since it fails every ``<= tol``."""
    return (residual != residual, residual)


def term_size(*terms) -> float:
    """The divisor of `relative`: the largest |entry| of the terms, >= 1e-300."""
    # the largest size as max() takes it, the first and then any larger
    # one, so that a NaN size counts exactly as it did through max()
    size = None
    for t in terms:
        n = abs(t) if type(t) is float else max_abs(t)
        if size is None or n > size:
            size = n
    if size is None:
        size = 0.0
    return max(size, 1e-300)


def relative(residual, *terms) -> float:
    """max |residual| over the largest |entry| among the terms it compares.

    Every verdict of the package is ``relative(...) <= tol``.  Residual and
    terms are numbers, lists, arrays or forms.  The terms must be
    uncancelled: the size of a product is the product of its factors'
    sizes, never the size of a difference that can cancel to roundoff.
    The quotient is then invariant under any rescaling of the data that
    scales residual and terms alike.  A NaN residual gives NaN, which
    fails every ``<= tol``."""
    return max_abs(residual) / term_size(*terms)
