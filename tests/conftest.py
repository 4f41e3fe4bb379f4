import random
from fractions import Fraction

import pytest

from mmtensor import Isotropy, Matrix


def rand_matrix(rng, n, span=9):
    return Matrix([[Fraction(rng.randint(-span, span), rng.randint(1, 5))
                    for _ in range(n)] for _ in range(n)])


def _dense(low, up):
    return Matrix(low) @ Matrix(up)


# Rational L.U factors: unit lower L, upper U with diagonal in {+-2, +-1/2}.
DENSE_ISOTROPY = Isotropy(
    _dense([[1, 0, 0], [2, 1, 0], [-1, 1, 1]],
           [[2, -1, 1], [0, Fraction(-1, 2), 2], [0, 0, Fraction(1, 2)]]),
    _dense([[1, 0, 0], [-1, 1, 0], [2, 2, 1]],
           [[Fraction(1, 2), 1, -1], [0, -2, 1], [0, 0, 2]]),
    _dense([[1, 0, 0], [1, 1, 0], [2, -1, 1]],
           [[-2, 2, 1], [0, Fraction(1, 2), -1], [0, 0, Fraction(-1, 2)]]))


def canonical_terms(t):
    """Multiset key of a tensor's nonzero terms up to per-term rescaling."""
    return sorted(tm.key() for tm in t.nonzero_terms())


@pytest.fixture
def rng():
    return random.Random(20230817)
