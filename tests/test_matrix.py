from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from mmtensor import (Matrix, as_fraction, matrix_lift, matrix_project,
                      winograd)
from mmtensor.matrix import projective_key

from oracles import is_invertible


def test_construction_and_indexing():
    m = Matrix([[1, 2], [3, "5/7"]])
    assert m[1, 1] == 1 and m[2, 2] == Fraction(5, 7)
    assert m.rows == m.cols == 2
    assert repr(m) == "Matrix[1 2; 3 5/7]"
    with pytest.raises(IndexError):
        m[0, 1]
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    for empty in ([], [[]]):
        with pytest.raises(ValueError, match="at least one row"):
            Matrix(empty)


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
    with pytest.raises(ValueError, match="product dimension"):
        a @ Matrix([[1, 2, 3]])


def test_equality_takes_the_shape():
    # num is flat, so matrices of one row-major int tuple differ by shape.
    pairs = [(Matrix([[1, 2]]), Matrix([[1], [2]])),
             (Matrix([[1, 2, 3], [4, 5, 6]]), Matrix([[1, 2], [3, 4], [5, 6]])),
             (Matrix.zeros(2), Matrix([[0, 0, 0, 0]]))]
    for a, b in pairs:
        assert (a.den, a.num) == (b.den, b.num)
        assert a != b and hash(a) != hash(b)
        assert len({a, b}) == 2


def test_trace_pair():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    # trace(a^T b) = sum of entrywise products
    assert a.trace_pair(b) == 5 + 12 + 21 + 32
    with pytest.raises(ValueError, match="shape"):
        a.trace_pair(Matrix([[1, 2, 3], [4, 5, 6]]))


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
    assert not is_invertible(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="non-square"):
        Matrix([[1, 2, 3], [0, 1, 0]]).inverse()
    assert is_invertible(Matrix.identity(4))


def test_inverse_random_roundtrip(rng):
    from conftest import rand_matrix
    for _ in range(20):
        m = rand_matrix(rng, 3)
        if is_invertible(m):
            assert m @ m.inverse() == Matrix.identity(3)


def test_fraction_helpers():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2
    with pytest.raises(TypeError):
        as_fraction(0.5)
    for text in ("0.5", "1e3", "1_000", "1/-2", " 1", "", "\u0661"):
        with pytest.raises(ValueError):
            as_fraction(text)


@pytest.mark.parametrize("make", [
    lambda: as_fraction("1/0"), lambda: as_fraction("-3/000"),
    lambda: Matrix([["1/0"]]), lambda: winograd("1/0")],
    ids=["as_fraction", "zero-run", "Matrix", "winograd"])
def test_zero_denominator_is_a_value_error(make):
    """A p/q string with q = 0 is malformed text, refused like any other,
    not a ZeroDivisionError from Fraction."""
    with pytest.raises(ValueError, match="malformed rational"):
        make()


def test_projective_key():
    m = Matrix([[0, "2/3"], [-4, 6]])
    assert projective_key(m) == (2, 2, 0, 1, -6, 9)
    assert projective_key(m.scale("-3/2")) == projective_key(m)
    assert projective_key(Matrix.zeros(2)) == (2, 2)
    assert projective_key(Matrix([[0, 0, 0]])) == (1, 3)


def test_projective_key_of_derived_matrices_and_immutability():
    m = Matrix([[0, "2/3"], [-4, 6]])
    fresh = lambda: Matrix([[0, "2/3"], [-4, 6]])
    assert projective_key(m) == projective_key(m) == projective_key(fresh())
    # Matrices derived from m have keys of their own.
    assert projective_key(m.scale(2)) == projective_key(m)
    assert projective_key(m.scale(0)) == (2, 2)
    assert projective_key(m + Matrix.identity(2)) == (2, 2, 3, 2, -12, 21)
    assert projective_key(matrix_project(m, 1, 1)) == (1, 1, 1)
    assert projective_key(matrix_project(m, 2, 2)) == (1, 1)
    assert projective_key(matrix_lift(m, 1, 1)) == (3, 3, 0, 0, 0,
                                                    0, 0, 1, 0, -6, 9)
    # Equality and hashing read only cols, den and num.
    assert m == fresh() and hash(m) == hash(fresh())
    assert len({m, fresh()}) == 1
    with pytest.raises(AttributeError):
        m.x = 1
    with pytest.raises(AttributeError):
        m._key = (2, 2)
    assert projective_key(m) == (2, 2, 0, 1, -6, 9)


# -- differential test against Fraction rows ------------------------------------

def ref_rank(rows):
    """Rank by Gauss-Jordan over Fractions."""
    a = [list(r) for r in rows]
    r = 0
    for c in range(len(a[0])):
        piv = next((k for k in range(r, len(a)) if a[k][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c] / a[r][c]
                a[k] = [v - f * w for v, w in zip(a[k], a[r])]
        r += 1
    return r


def ref_inverse(rows):
    """Inverse by Gauss-Jordan over Fractions; ValueError when singular."""
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((k for k in range(c, n) if a[k][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for k in range(n):
            if k != c and a[k][c]:
                f = a[k][c]
                a[k] = [v - f * w for v, w in zip(a[k], a[c])]
    return [row[n:] for row in a]


def ref_matmul(x, y):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*y)] for row in x]


_entry = st.one_of(st.integers(-9, 9).map(Fraction),
                   st.builds(Fraction, st.integers(-50, 50),
                             st.integers(1, 12)))


def _plain(r, c):
    return st.lists(st.lists(_entry, min_size=c, max_size=c),
                    min_size=r, max_size=r)


@st.composite
def _rows(draw, r, c):
    """r x c Fraction rows; about half of those with r, c >= 2 are products
    through a narrower middle dimension, so rank deficient."""
    if min(r, c) > 1 and draw(st.booleans()):
        k = draw(st.integers(1, min(r, c) - 1))
        return ref_matmul(draw(_plain(r, k)), draw(_plain(k, c)))
    return draw(_plain(r, c))


def assert_canonical(m, rows):
    """m holds the value rows in lowest terms, num its row-major ints."""
    assert m.row_list() == rows
    assert (m.rows, m.cols) == (len(rows), len(rows[0]))
    assert type(m.num) is tuple and len(m.num) == m.rows * m.cols
    assert m.den > 0 and gcd(m.den, *m.num) == 1
    assert m.den == lcm(*(v.denominator for r in rows for v in r))
    assert all(type(v) is int for v in m.num)
    assert all(Fraction(m.num[(i - 1) * m.cols + j - 1], m.den) == m[i, j]
               == v for i, row in enumerate(rows, 1)
               for j, v in enumerate(row, 1))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       _entry)
def test_matrix_matches_fraction_reference(data, r, c, k, s):
    x = data.draw(_rows(r, c))
    y = data.draw(_rows(r, c))
    z = data.draw(_rows(c, k))
    mx, my, mz = Matrix(x), Matrix(y), Matrix(z)
    assert_canonical(mx, x)
    assert_canonical(mx + my, [[a + b for a, b in zip(p, q)]
                               for p, q in zip(x, y)])
    assert_canonical(mx - my, [[a - b for a, b in zip(p, q)]
                               for p, q in zip(x, y)])
    assert_canonical(-mx, [[-a for a in p] for p in x])
    assert_canonical(mx.scale(s), [[s * a for a in p] for p in x])
    assert_canonical(mx.scale(0), [[Fraction(0)] * c for _ in x])
    assert_canonical(mx @ mz, ref_matmul(x, z))
    assert_canonical(mx.transpose(), [list(col) for col in zip(*x)])
    assert mx.trace_pair(my) == sum((a * b for p, q in zip(x, y)
                                     for a, b in zip(p, q)), Fraction(0))
    assert mx.rank() == ref_rank(x)
    assert [(i, j, v) for i, j, v in mx.entries()] == [
        (i, j, v) for i, p in enumerate(x, 1) for j, v in enumerate(p, 1)
        if v]
    if r == c:
        try:
            inv = ref_inverse(x)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                mx.inverse()
            assert not is_invertible(mx)
        else:
            assert_canonical(mx.inverse(), inv)
            assert is_invertible(mx)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), _entry)
def test_equal_values_have_equal_fields(data, r, c, s):
    x = data.draw(_rows(r, c))
    i, j = data.draw(st.integers(1, r + 1)), data.draw(st.integers(1, c + 1))
    border = data.draw(st.lists(_entry, min_size=r + c + 1,
                                max_size=r + c + 1))
    bordered = [list(row) for row in x]
    for row, v in zip(bordered, border):
        row.insert(j - 1, v)
    bordered.insert(i - 1, border[r:])
    m = Matrix(x)
    same = [Matrix([[str(v) for v in row] for row in x]),
            Matrix.identity(r) @ m, m @ Matrix.identity(c),
            (m + m).scale(Fraction(1, 2)),
            matrix_project(Matrix(bordered), i, j),
            matrix_project(matrix_lift(m, i, j), i, j)]
    if s:
        same.append(Matrix(x).scale(s).scale(1 / s))
    for other in same:
        assert (other.rows, other.cols, other.den, other.num,
                hash(other)) == (m.rows, m.cols, m.den, m.num, hash(m))
        assert other == m
        assert_canonical(other, x)
