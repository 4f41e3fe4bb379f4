import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from mmtensor import (Isotropy, IsotropyGroup, Matrix, RankOneTerm, Tensor,
                      compose)


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


_ENTRY = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1),
                          Fraction(2), Fraction(1, 2)])
_SCALE = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2),
                          Fraction(3)])


@st.composite
def planted_tensor(draw):
    """A few random terms of dimension 2..4 plus planted merges: rescaled
    copies (alpha a, beta b, c / (alpha beta)), negated copies that merge
    to a zero term, and chains (a, b, c1), (x a, b / x, c2),
    (a2, b, c1 + c2), whose first merge then merges with the third term;
    then maybe a full cancellation, a negated copy of every term, so that
    the form is zero."""
    n = draw(st.integers(2, 4))
    matrix = st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                      min_size=n, max_size=n).map(Matrix)
    terms = [RankOneTerm(*draw(st.tuples(matrix, matrix, matrix)))
             for _ in range(draw(st.integers(1, 4)))]
    for plant in draw(st.lists(st.sampled_from(["scale", "negate", "chain"]),
                               max_size=4)):
        tm = terms[draw(st.integers(0, len(terms) - 1))]
        if plant == "scale":
            x, y = draw(_SCALE), draw(_SCALE)
            terms.append(RankOneTerm(tm.a.scale(x), tm.b.scale(y),
                                     tm.c.scale(1 / (x * y))))
        elif plant == "negate":
            terms.append(tm.scaled(-1))
        else:
            c2, a2 = draw(matrix), draw(matrix)
            x = draw(_SCALE)
            terms += [RankOneTerm(tm.a.scale(x), tm.b.scale(1 / x), c2),
                      RankOneTerm(a2, tm.b, tm.c + c2)]
    if draw(st.booleans()):
        terms += [tm.scaled(-1) for tm in terms]
    return Tensor(n, draw(st.permutations(terms)))


@pytest.fixture
def rng():
    return random.Random(20230817)
