from fractions import Fraction

import pytest

from mmtensor import Matrix, as_fraction, proportionality


def test_construction_and_indexing():
    m = Matrix([[1, 2], [3, "5/7"]])
    assert m[1, 1] == 1 and m[2, 2] == Fraction(5, 7)
    assert m.rows == m.cols == 2
    with pytest.raises(IndexError):
        m[0, 1]
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_builders():
    assert Matrix.identity(3)[2, 2] == 1
    assert Matrix.identity(3)[1, 2] == 0
    assert Matrix.zeros(2).is_zero()
    e = Matrix.unit(3, 1, 2)
    assert list(e.entries()) == [(1, 2, Fraction(1))]
    with pytest.raises(IndexError):
        Matrix.unit(2, 3, 1)


def test_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert -a == a.scale(-1)
    assert a @ Matrix.identity(2) == a
    assert (a @ b).row_list() == [[2, 1], [4, 3]]
    assert a.transpose().transpose() == a
    with pytest.raises(ValueError):
        a + Matrix([[1]])


def test_trace_pair():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    # trace(a^T b) = sum of entrywise products
    assert a.trace_pair(b) == 5 + 12 + 21 + 32


def test_rank():
    assert Matrix.identity(3).rank() == 3
    assert Matrix.zeros(3).rank() == 0
    assert Matrix([[1, 2], [2, 4]]).rank() == 1
    assert Matrix([["1/2", "1/3"], ["1/5", "1/7"]]).rank() == 2
    # non-square
    assert Matrix([[1, 2, 3], [2, 4, 6]]).rank() == 1


def test_inverse():
    m = Matrix([["1/2", 1], [0, 3]])
    assert m @ m.inverse() == Matrix.identity(2)
    assert m.inverse() @ m == Matrix.identity(2)
    with pytest.raises(ValueError, match="singular"):
        Matrix([[1, 2], [2, 4]]).inverse()
    assert not Matrix([[1, 2], [2, 4]]).is_invertible()
    assert Matrix.identity(4).is_invertible()


def test_inverse_random_roundtrip(rng):
    from conftest import rand_matrix
    for _ in range(20):
        m = rand_matrix(rng, 3)
        if m.is_invertible():
            assert m @ m.inverse() == Matrix.identity(3)


def test_proportionality():
    a = Matrix([[2, 0], [0, 4]])
    assert proportionality(a, a.scale(Fraction(1, 2))) == 2
    assert proportionality(a, Matrix([[1, 0], [0, 1]])) is None
    assert proportionality(a, Matrix.zeros(2)) is None
    assert proportionality(Matrix.zeros(2), a) is None


def test_fraction_helpers():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2
    with pytest.raises(TypeError):
        as_fraction(0.5)
