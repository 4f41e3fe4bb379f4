"""Exact rational matrices with 1-based indexing.

A Matrix is num / den: ``den`` a positive int, ``num`` a tuple of row-major
ints, in lowest terms (gcd(den, *num) == 1), so equal matrices have equal
fields and (m.den, m.num) is the flat factor.  Arithmetic runs on the ints;
m[i, j], entries() and row_list() give Fractions, 1-based as in a_11..a_33.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul

Rational = Fraction | int

# Longer digit runs are refused before int(), so no answer depends on the
# interpreter's digit limit, which never applies at 640 digits or fewer.
MAX_DIGITS = 640
_DIGITS = rf"[0-9]{{1,{MAX_DIGITS}}}"
INTEGER = re.compile(rf"[+-]?{_DIGITS}")
# p or p/q with q != 0: the lookahead asks q for a nonzero digit.
RATIONAL = re.compile(rf"{INTEGER.pattern}(?:/(?=0*[1-9]){_DIGITS})?")


def parse_int(text: str) -> int:
    """The integer in text, an ASCII digit run of at most MAX_DIGITS with
    an optional sign; ValueError for any other text."""
    if not INTEGER.fullmatch(text):
        raise ValueError(f"malformed integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """The integer or p/q in text, ASCII digit runs of at most MAX_DIGITS
    with an optional sign on p and q != 0; ValueError for any other text."""
    if not RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational: {text!r}")
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q or 1))


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _eliminate(a: list, ncols: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the int rows a in
    place, pivoting in the first ncols columns; returns (rank, last pivot).
    Entries stay int minors of the input, so each division is exact; at
    full row rank the first ncols columns end as last pivot times I."""
    nr = len(a)
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((k for k in range(r, nr) if a[k][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pr = a[r]
        p = pr[c]
        for k in range(nr):
            if k != r:
                f = a[k][c]
                a[k] = [(p * v - f * w) // prev for v, w in zip(a[k], pr)]
        prev = p
        r += 1
        if r == nr:
            break
    return r, prev


class Matrix:
    """Immutable rows x cols matrix num / den, addressed as m[i, j], 1-based."""

    __slots__ = ("rows", "cols", "den", "num")

    def __new__(cls, entries):
        """The matrix with rows of ints, Fractions or 'p/q' strings."""
        rows = [[as_fraction(x) for x in row] for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        den = lcm(*(v.denominator for row in rows for v in row))
        return Matrix.from_ints(den, len(rows[0]), [
            v.numerator * (den // v.denominator) for row in rows for v in row])

    @staticmethod
    def from_ints(den: int, cols: int, num) -> "Matrix":
        """num / den for a nonzero int den and row-major ints num, cols to a
        row, in lowest terms with den > 0: every Matrix is built here."""
        if den < 0:
            den, num = -den, [-v for v in num]
        if den != 1 and (g := gcd(den, *num)) != 1:
            den //= g
            num = [v // g for v in num]
        m = object.__new__(Matrix)
        _set_rows(m, len(num) // cols)
        _set_cols(m, cols)
        _set_den(m, den)
        _set_num(m, tuple(num))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(n: int) -> "Matrix":
        return Matrix.from_ints(1, n, [0] * (n * n))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_ints(1, n, [int(i == j) for i in range(n)
                                       for j in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """The matrix e^i_j: single 1 at row i, column j (1-based)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"unit index ({i},{j}) out of range for n={n}")
        num = [0] * (n * n)
        num[(i - 1) * n + j - 1] = 1
        return Matrix.from_ints(1, n, num)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"index ({i},{j}) out of range "
                             f"for {self.rows}x{self.cols} matrix")
        return Fraction(self.num[(i - 1) * self.cols + j - 1], self.den)

    def row_slices(self) -> list[tuple[int, ...]]:
        """The rows of num, one slice each."""
        num, c = self.num, self.cols
        return [num[k:k + c] for k in range(0, len(num), c)]

    def row_list(self) -> list[list[Fraction]]:
        d = self.den
        return [[Fraction(v, d) for v in row] for row in self.row_slices()]

    def entries(self):
        """Yield (i, j, value) for nonzero entries, row-major."""
        d, c = self.den, self.cols
        for k, v in enumerate(self.num):
            if v:
                yield k // c + 1, k % c + 1, Fraction(v, d)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        d = lcm(self.den, other.den)
        x, y = d // self.den, sign * (d // other.den)
        return Matrix.from_ints(d, self.cols, [
            x * a + y * b for a, b in zip(self.num, other.num)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix.from_ints(self.den, self.cols, [-a for a in self.num])

    def scale(self, s: Rational) -> "Matrix":
        s = as_fraction(s)
        p = s.numerator
        return Matrix.from_ints(self.den * s.denominator, self.cols,
                                [p * a for a in self.num])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix product dimension mismatch")
        cols = [other.num[j::other.cols] for j in range(other.cols)]
        return Matrix.from_ints(self.den * other.den, other.cols, [
            sum(map(mul, r, c)) for r in self.row_slices() for c in cols])

    def transpose(self) -> "Matrix":
        return Matrix.from_ints(self.den, self.rows, [
            v for col in zip(*self.row_slices()) for v in col])

    def trace_pair(self, other: "Matrix") -> Fraction:
        """trace(self^T . other), the entrywise pairing."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        return Fraction(sum(map(mul, self.num, other.num)),
                        self.den * other.den)

    # -- exact linear algebra -------------------------------------------------

    def rank(self) -> int:
        """Rank over the rationals, by fraction-free elimination."""
        return _eliminate(self.row_slices(), self.cols)[0]

    def inverse(self) -> "Matrix":
        """Exact inverse by fraction-free Gauss-Jordan on [num | I], which
        ends as [p I | p num^-1]; raises ValueError on singular input."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a = [row + tuple(int(i == j) for j in range(n))
             for i, row in enumerate(self.row_slices())]
        rank, det = _eliminate(a, n)
        if rank < n:
            raise ValueError("singular matrix")
        return Matrix.from_ints(det, n, [self.den * v for row in a
                                         for v in row[n:]])

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        # cols and len(num) fix the shape, which flat num alone does not.
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.row_list())
        return f"Matrix[{body}]"


_set_rows, _set_cols, _set_den, _set_num = (  # past __setattr__
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def projective_key(m: Matrix) -> tuple[int, ...]:
    """m's shape and the row-major ints of its primitive integer multiple
    with a positive lead, the first nonzero entry row-major (the shape alone
    if m = 0).  Nonzero matrices are proportional iff their keys agree."""
    return flat_projective_key(m.rows, m.cols, m.num)


def flat_projective_key(rows: int, cols: int, flat: tuple) -> tuple[int, ...]:
    """projective_key of any flat factor (den, flat) of a rows x cols
    matrix, den > 0, flat its row-major ints: one gcd and a tuple."""
    if not (g := gcd(*flat)):
        return rows, cols
    if next(filter(None, flat)) < 0:
        g = -g
    return rows, cols, *(flat if g == 1 else (v // g for v in flat))


def tuple_getter(indices):
    """itemgetter(*indices), returning a tuple for a single index too."""
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda flat: (get(flat),)
