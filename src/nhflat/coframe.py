"""The left-invariant coframe e1..e6 of S3 x S3, combinatorially: the
ascending-index monomial basis of each degree, the differentials of the
coframe elements and the sign of a shuffle.

Plain Python, so that the modules that need only these tables (the
signed-permutation tables of `structure`) do not load numpy.  `exterior`
builds its arrays from them and re-exports them."""

from __future__ import annotations

import itertools

DIM = 6

#: degree -> list of ascending index tuples (1-based indices)
BASIS = {k: list(itertools.combinations(range(1, DIM + 1), k)) for k in range(DIM + 1)}
#: degree -> {tuple: position}
BASIS_INDEX = {k: {mono: n for n, mono in enumerate(BASIS[k])} for k in range(DIM + 1)}
DIMS = [len(BASIS[k]) for k in range(DIM + 1)]

# differential of each coframe element: index -> (2-index tuple, sign)
COFRAME_DIFFERENTIAL = {
    1: ((3, 5), 1),
    2: ((4, 6), 1),
    3: ((1, 5), -1),
    4: ((2, 6), -1),
    5: ((1, 3), 1),
    6: ((2, 4), 1),
}


def _merge(left: tuple, right: tuple):
    """Merge two ascending index tuples into an ascending tuple with the
    sign of the shuffle, or None if an index repeats."""
    if set(left) & set(right):
        return None, 0
    merged = left + right
    order = sorted(range(len(merged)), key=lambda n: merged[n])
    sign = 1
    # parity by counting inversions (tuples have length <= 6)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return tuple(merged[n] for n in order), sign
