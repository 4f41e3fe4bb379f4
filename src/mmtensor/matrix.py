"""Exact rational matrices with 1-based indexing.

A Matrix is num / den: ``den`` a positive int, ``num`` a tuple of int rows,
in lowest terms (gcd(den, *entries) == 1), so equal matrices have equal
fields.  Arithmetic runs on the ints; m[i, j], entries() and row_list() give
Fractions.  Indexing is 1-based to keep a_11..a_33 coordinates readable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

Rational = Fraction | int

# Longer digit runs are refused before int(), so no answer depends on the
# interpreter's digit limit, which never applies at 640 digits or fewer.
MAX_DIGITS = 640
_DIGITS = rf"[0-9]{{1,{MAX_DIGITS}}}"
INTEGER = re.compile(rf"[+-]?{_DIGITS}")
RATIONAL = re.compile(rf"{INTEGER.pattern}(?:/{_DIGITS})?")  # p or p/q


def parse_int(text: str) -> int:
    """The integer in text, an ASCII digit run of at most MAX_DIGITS with
    an optional sign; ValueError for any other text."""
    if not INTEGER.fullmatch(text):
        raise ValueError(f"malformed integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """The integer or p/q in text, ASCII digit runs of at most MAX_DIGITS
    with an optional sign on p; ValueError for any other text,
    ZeroDivisionError for q = 0."""
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


def _eliminate(a: list[list[int]], ncols: int) -> tuple[int, int]:
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
        return Matrix.from_ints(den, [[v.numerator * (den // v.denominator)
                                       for v in row] for row in rows])

    @staticmethod
    def from_ints(den: int, num) -> "Matrix":
        """num / den for a nonzero int den and int rows num, in lowest terms
        with den > 0: every Matrix is built here."""
        if den < 0:
            den, num = -den, [[-v for v in row] for row in num]
        if den != 1 and (g := gcd(den, *chain.from_iterable(num))) != 1:
            den //= g
            num = [[v // g for v in row] for row in num]
        m = object.__new__(Matrix)
        _set_rows(m, len(num))
        _set_cols(m, len(num[0]))
        _set_den(m, den)
        _set_num(m, tuple(map(tuple, num)))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(n: int) -> "Matrix":
        return Matrix.from_ints(1, [[0] * n for _ in range(n)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_ints(1, [[int(i == j) for j in range(n)]
                                    for i in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """The matrix e^i_j: single 1 at row i, column j (1-based)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"unit index ({i},{j}) out of range for n={n}")
        rows = [[0] * n for _ in range(n)]
        rows[i - 1][j - 1] = 1
        return Matrix.from_ints(1, rows)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"index ({i},{j}) out of range "
                             f"for {self.rows}x{self.cols} matrix")
        return Fraction(self.num[i - 1][j - 1], self.den)

    def row_list(self) -> list[list[Fraction]]:
        d = self.den
        return [[Fraction(v, d) for v in row] for row in self.num]

    def entries(self):
        """Yield (i, j, value) for nonzero entries, row-major."""
        d = self.den
        for i, row in enumerate(self.num, start=1):
            for j, v in enumerate(row, start=1):
                if v:
                    yield i, j, Fraction(v, d)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        d = lcm(self.den, other.den)
        x, y = d // self.den, sign * (d // other.den)
        return Matrix.from_ints(d, [[x * a + y * b for a, b in zip(r1, r2)]
                                    for r1, r2 in zip(self.num, other.num)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix.from_ints(self.den, [[-a for a in r] for r in self.num])

    def scale(self, s: Rational) -> "Matrix":
        s = as_fraction(s)
        p = s.numerator
        return Matrix.from_ints(self.den * s.denominator,
                                [[p * a for a in r] for r in self.num])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix product dimension mismatch")
        bt = list(zip(*other.num))
        return Matrix.from_ints(self.den * other.den,
                                [[sum(map(mul, row, col)) for col in bt]
                                 for row in self.num])

    def transpose(self) -> "Matrix":
        return Matrix.from_ints(self.den, list(zip(*self.num)))

    def trace_pair(self, other: "Matrix") -> Fraction:
        """trace(self^T . other), the entrywise pairing."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        return Fraction(sum(map(mul, chain.from_iterable(self.num),
                                chain.from_iterable(other.num))),
                        self.den * other.den)

    # -- exact linear algebra -------------------------------------------------

    def rank(self) -> int:
        """Rank over the rationals, by fraction-free elimination."""
        return _eliminate(list(map(list, self.num)), self.cols)[0]

    def inverse(self) -> "Matrix":
        """Exact inverse by fraction-free Gauss-Jordan on [num | I], which
        ends as [p I | p num^-1]; raises ValueError on singular input."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a = [list(row) + [int(i == j) for j in range(n)]
             for i, row in enumerate(self.num)]
        rank, det = _eliminate(a, n)
        if rank < n:
            raise ValueError("singular matrix")
        return Matrix.from_ints(det, [[self.den * v for v in row[n:]]
                                      for row in a])

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.den, self.num))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.row_list())
        return f"Matrix[{body}]"


_set_rows, _set_cols, _set_den, _set_num = (  # past __setattr__
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def projective_key(m: Matrix) -> tuple[int, ...]:
    """m's shape and the flat int rows of its primitive integer multiple
    with a positive lead, the first nonzero entry row-major (the shape alone
    if m = 0).  Nonzero matrices are proportional iff their keys agree."""
    flat = tuple(chain.from_iterable(m.num))
    return flat_projective_key(m.rows, m.cols, flat)


def flat_projective_key(rows: int, cols: int, flat: tuple) -> tuple[int, ...]:
    """projective_key of num / den for any positive den, num the rows x
    cols matrix of the row-major ints flat: one gcd and a tuple, no
    Matrix built."""
    if not (g := gcd(*flat)):
        return rows, cols
    if next(filter(None, flat)) < 0:
        g = -g
    return rows, cols, *(flat if g == 1 else (v // g for v in flat))
