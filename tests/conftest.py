import random
from fractions import Fraction

import pytest

from mmtensor import Isotropy, IsotropyGroup, Matrix, compose


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


def three_cycle_group():
    """{e, r, r^2} for r = (C, C, C), C the 3-cycle sending index j to j + 1:
    nine monomial orbits of size 3, the first {(1,1,1), (2,2,2), (3,3,3)}."""
    c = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    r = Isotropy(c, c, c)
    return IsotropyGroup([Isotropy.identity(3), r, compose(r, r)])


def canonical_terms(t):
    """Multiset key of a tensor's nonzero terms up to per-term rescaling."""
    return sorted(tm.key() for tm in t.nonzero_terms())


@pytest.fixture
def rng():
    return random.Random(20230817)
