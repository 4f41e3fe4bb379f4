"""Exact rational matrices with 1-based indexing.

Entries are ``fractions.Fraction``; every operation is exact.  Indexing is
1-based throughout the package to keep a_11..a_33 style coordinates readable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction | int


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Matrix:
    """Immutable rows x cols matrix of Fractions, addressed as m[i, j], 1-based."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]))
        object.__setattr__(self, "_e", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return Matrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """The matrix e^i_j: single 1 at row i, column j (1-based)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"unit index ({i},{j}) out of range for n={n}")
        return Matrix([[1 if (r, c) == (i, j) else 0 for c in range(1, n + 1)]
                       for r in range(1, n + 1)])

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"index ({i},{j}) out of range "
                             f"for {self.rows}x{self.cols} matrix")
        return self._e[i - 1][j - 1]

    def row_list(self) -> list[list[Fraction]]:
        return [list(r) for r in self._e]

    def entries(self):
        """Yield (i, j, value) for nonzero entries, row-major."""
        for i, row in enumerate(self._e, start=1):
            for j, v in enumerate(row, start=1):
                if v:
                    yield i, j, v

    def is_zero(self) -> bool:
        return all(v == 0 for row in self._e for v in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self._e])

    def scale(self, s: Rational) -> "Matrix":
        s = as_fraction(s)
        return Matrix([[s * a for a in r] for r in self._e])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix product dimension mismatch")
        bt = list(zip(*other._e))
        return Matrix([[sum(a * b for a, b in zip(row, col)) for col in bt]
                       for row in self._e])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self._e)))

    def trace_pair(self, other: "Matrix") -> Fraction:
        """trace(self^T . other), the entrywise pairing."""
        self._check_same_shape(other)
        return sum((a * b for r1, r2 in zip(self._e, other._e)
                    for a, b in zip(r1, r2)), Fraction(0))

    def _check_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    # -- exact linear algebra -------------------------------------------------

    def rank(self) -> int:
        """Rank over the rationals, via fraction-free (Bareiss) elimination."""
        # Clear denominators row by row; row scaling does not change rank.
        m = []
        for row in self._e:
            mult = lcm(*(v.denominator for v in row)) if row else 1
            m.append([int(v * mult) for v in row])
        nr, nc = self.rows, self.cols
        rank = 0
        prev = 1
        r = 0
        for c in range(nc):
            piv = next((k for k in range(r, nr) if m[k][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for k in range(r + 1, nr):
                for j in range(c + 1, nc):
                    m[k][j] = (m[r][c] * m[k][j] - m[k][c] * m[r][j]) // prev
                m[k][c] = 0
            prev = m[r][c]
            r += 1
            rank += 1
            if r == nr:
                break
        return rank

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan; raises ValueError on singular input."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a = [list(r) + [Fraction(int(i == j)) for j in range(n)]
             for i, r in enumerate(self._e)]
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
        return Matrix([row[n:] for row in a])

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.rows

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self._e)
        return f"Matrix[{body}]"


def int_entries(m: Matrix) -> tuple[int, list]:
    """(d, [((i, j), v d) for the nonzero entries v]), d the lcm of the
    entries' denominators."""
    entries = list(m.entries())
    d = lcm(*(v.denominator for _, _, v in entries))
    return d, [((i, j), v.numerator * (d // v.denominator))
               for i, j, v in entries]


def projective_key(m: Matrix) -> tuple[Fraction, tuple]:
    """Split m into (lead, key): lead is its first nonzero entry in row-major
    order (0 for a zero matrix), key its shape and the int_entries of the
    primitive integer multiple of m with a positive lead.  Two nonzero
    matrices are proportional iff their keys are equal."""
    d, ints = int_entries(m)
    if not ints:
        return Fraction(0), (m.rows, m.cols)
    lead = ints[0][1]
    g = gcd(*(v for _, v in ints))
    if lead < 0:
        g = -g
    return Fraction(lead, d), ((m.rows, m.cols),
                               *((k, v // g) for k, v in ints))


def proportionality(m1: Matrix, m2: Matrix) -> Fraction | None:
    """Return alpha with m1 == alpha * m2 (both nonzero), else None."""
    (l1, k1), (l2, k2) = projective_key(m1), projective_key(m2)
    return l1 / l2 if l1 and l2 and k1 == k2 else None
