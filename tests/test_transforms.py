from fractions import Fraction
from itertools import product

import pytest

import mmtensor as mm
from mmtensor import Matrix

from conftest import DENSE_ISOTROPY, rand_matrix


def test_matrix_zero():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    z = mm.matrix_zero(m, 2, 3)
    assert z.row_list() == [[1, 2, 0], [0, 0, 0], [7, 8, 0]]
    with pytest.raises(IndexError):
        mm.matrix_zero(m, 4, 1)


def test_matrix_project_and_lift_roundtrip():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    p = mm.matrix_project(m, 2, 3)
    assert p.row_list() == [[1, 2], [7, 8]]
    # lift inserts zero row/column; projecting back recovers the input
    small = Matrix([[1, 2], [3, 4]])
    assert mm.matrix_lift(small, 2, 1).row_list() == \
        [[0, 1, 2], [0, 0, 0], [0, 3, 4]]
    with pytest.raises(IndexError):
        mm.matrix_lift(small, 1, 4)
    for i in range(1, 4):
        for j in range(1, 4):
            assert mm.matrix_project(mm.matrix_lift(small, i, j), i, j) == small
    with pytest.raises(ValueError):
        mm.matrix_project(Matrix([[1]]), 1, 1)


def test_project_of_zeroed_equals_project():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mm.matrix_project(mm.matrix_zero(m, 1, 2), 1, 2) == \
        mm.matrix_project(m, 1, 2)


def test_tensor_zero_keeps_alignment():
    t = mm.classical(2)
    z = mm.tensor_zero(t, (1, 1, 1))
    assert len(z.terms) == len(t.terms)
    assert mm.decomposition_length(z) < mm.decomposition_length(t)


def test_tensor_project_classical():
    # projecting schoolbook n x n gives schoolbook (n-1) x (n-1)
    for idx in product(range(1, 4), repeat=3):
        p = mm.tensor_project(mm.classical(3), idx)
        assert p.dim == 2
        assert mm.is_matmul_tensor(p)
    with pytest.raises(ValueError):
        mm.tensor_project(mm.classical(1), (1, 1, 1))


def test_tensor_lift_project_roundtrip():
    w = mm.strassen()
    for idx in product(range(1, 4), repeat=3):
        lifted = mm.tensor_lift(w, idx)
        assert lifted.dim == 3
        assert mm.tensor_project(lifted, idx) == w


def test_zeroing_family_sum_averaging():
    for t in (mm.classical(2), mm.classical(3), mm.strassen()):
        n = t.dim
        s = mm.zeroing_family_sum(t)
        assert mm.form_equal(s, mm.combine(t, (n - 1) ** 3, t, 0))


def test_zeroing_family_sum_warns_on_unverified():
    bad = mm.Tensor(2, [mm.monomial_term(2, 1, 1, 1)])
    with pytest.warns(UserWarning):
        mm.zeroing_family_sum(bad)


def test_contraction_compatibility(rng):
    # zeroing the tensor, zeroing the arguments, and projecting both all
    # contract to the same value
    t = mm.classical(3)
    a, b, c = (rand_matrix(rng, 3) for _ in range(3))
    for i, j, k in product(range(1, 4), repeat=3):
        lhs = mm.full_contraction(t, mm.matrix_zero(a, i, j),
                                  mm.matrix_zero(b, j, k),
                                  mm.matrix_zero(c, k, i))
        mid = mm.full_contraction(mm.tensor_zero(t, (i, j, k)), a, b, c)
        rhs = mm.full_contraction(mm.tensor_project(t, (i, j, k)),
                                  mm.matrix_project(a, i, j),
                                  mm.matrix_project(b, j, k),
                                  mm.matrix_project(c, k, i))
        assert lhs == mid == rhs


_CENSUS_TENSORS = {
    "laderman": mm.laderman,
    "variant-3/4": lambda: mm.laderman_variant(Fraction(3, 4)),
    "dense": lambda: mm.act(DENSE_ISOTROPY, mm.laderman()),
    # One term short: the projections that keep that term fail.
    "laderman-minus-one": lambda: mm.Tensor(3, mm.laderman().terms[1:]),
}


@pytest.mark.parametrize("name", _CENSUS_TENSORS)
def test_projection_census_matches_reference_loop(name):
    """The census projects each factor once; term for term it must equal
    merging each tensor_project, with the verdict of the Fraction table."""
    t = _CENSUS_TENSORS[name]()
    census = list(mm.projection_census(t))
    assert [idx for idx, _, _ in census] == list(product(range(1, 4),
                                                         repeat=3))
    for idx, merged, ok in census:
        ref = mm.merge_shared_factors(mm.tensor_project(t, idx))
        assert merged.dim == ref.dim == 2
        assert merged.terms == ref.terms, idx
        assert ok == (mm.to_coefficient_form(ref)
                      == mm.to_coefficient_form(mm.classical(2)))
    verdicts = [ok for _, _, ok in census]
    assert all(verdicts) == (name != "laderman-minus-one")


def test_projection_census_needs_dimension_two():
    with pytest.raises(ValueError, match="census needs dimension >= 2"):
        list(mm.projection_census(mm.classical(1)))
