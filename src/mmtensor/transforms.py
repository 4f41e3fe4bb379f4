"""Row/column zeroing, projection and lift operators on matrices and tensors.

The tensor operators apply per factor with the cyclic index pattern
(i,j), (j,k), (k,i), extended over a decomposition by additivity, and relate
n x n multiplication tensors to their (n-1) x (n-1) projections.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import product

from .matrix import Matrix, tuple_getter
from .tensor import (Tensor, brent_failures, classifier, is_matmul_tensor,
                     map_factors, merge_keyed_terms)

IndexTriple = tuple[int, int, int]


def _check_index(n: int, *indices: int):
    for x in indices:
        if not (1 <= x <= n):
            raise IndexError(f"index {x} out of range 1..{n}")


def matrix_zero(m: Matrix, i: int, j: int) -> Matrix:
    """Zero out row i and column j, leaving the rest unchanged."""
    kept = set(_kept(m.rows, m.cols, i, j))
    return Matrix.from_ints(m.den, m.cols, [v if k in kept else 0
                                            for k, v in enumerate(m.num)])


def matrix_project(m: Matrix, i: int, j: int) -> Matrix:
    """Delete row i and column j (the zeroed line and column are removed)."""
    if m.rows < 2 or m.cols < 2:
        raise ValueError("cannot project a 1x1 matrix")
    return Matrix.from_ints(m.den, m.cols - 1,
                            _cut(m.rows, m.cols, i, j)(m.num))


def matrix_lift(m: Matrix, i: int, j: int) -> Matrix:
    """Insert a zero row at i and zero column at j; projecting back recovers m."""
    kept = dict(zip(_kept(m.rows + 1, m.cols + 1, i, j), m.num))
    return Matrix.from_ints(m.den, m.cols + 1, [
        kept.get(k, 0) for k in range((m.rows + 1) * (m.cols + 1))])


def tensor_zero(t: Tensor, idx: IndexTriple) -> Tensor:
    """Zero each term's factors with the pattern (i,j), (j,k), (k,i).

    Terms killed by the zeroing are kept in the collection as zero terms so
    the output stays aligned with the source decomposition.
    """
    _check_index(t.dim, *idx)
    return map_factors(t, matrix_zero, idx, t.dim)


def tensor_project(t: Tensor, idx: IndexTriple) -> Tensor:
    """Project every term to dimension n-1 with the pattern (i,j), (j,k), (k,i)."""
    if t.dim < 2:
        raise ValueError("cannot project a dimension-1 tensor")
    _check_index(t.dim, *idx)
    return map_factors(t, matrix_project, idx, t.dim - 1)


def projection_census(t: Tensor):
    """Yield (idx, length, verified) for idx in {1..n}^3 in lexicographic
    order: length is len(p.terms) and verified is is_matmul_tensor(p) for
    p = merge_shared_factors(tensor_project(t, idx)).

    The verdicts come from one brent_failures(t), not from one check per
    projection.  Projection (i, j, k) deletes row i and column j of each a,
    row j and column k of each b, row k and column i of each c, so its form
    is t's form restricted to the coefficients whose a, b and c entries
    avoid those lines; the (n-1)-monomials are exactly the surviving
    n-monomials.  So p verifies iff no failure of t survives (i, j, k).

    The lengths count merge_keyed_terms's surviving slots.  Each factor
    m is cut once per (row, column) cell from m.num, by one _cut
    itemgetter per cell, the rule matrix_project uses too, and zero cuts
    are dropped there.  Each nonzero cut (den, cut entries) is a flat
    factor, as (m.den, m.num) is; it goes through one classifier() that
    all n^3 merges share, so each distinct cut is keyed once.  Projection
    (i, j, k) hands merge_keyed_terms as slots the classed a, b and c cuts
    at (i, j), (j, k) and (k, i) of the terms whose three cuts are all
    nonzero, the terms merge_shared_factors keeps, and the merges fold
    those ints as they are: a census builds no Matrix and no rank-one
    term."""
    n = t.dim
    if n < 2:
        raise ValueError("census needs dimension >= 2")
    cells = list(product(range(1, n + 1), repeat=2))
    # per failure: the i, the j and the k whose lines it meets
    bad = [((a[0], c[1]), (a[1], b[0]), (b[1], c[0]))
           for a, b, c in brent_failures(t)]
    classify = classifier()
    cuts = [(rc, _cut(n, n, *rc)) for rc in cells]
    proj = [[{rc: classify((m.den, vals)) for rc, cut in cuts
              if any(vals := cut(m.num))} for m in (tm.a, tm.b, tm.c)]
            for tm in t.nonzero_terms()]
    for i, j, k in product(range(1, n + 1), repeat=3):
        slots = [(a, b, c) for pa, pb, pc in proj if (a := pa.get((i, j)))
                 and (b := pb.get((j, k))) and (c := pc.get((k, i)))]
        yield (i, j, k), len(merge_keyed_terms(slots, classify)), not any(
            i not in x and j not in y and k not in z for x, y, z in bad)


def _kept(rows: int, cols: int, i: int, j: int) -> list[int]:
    """The row-major positions of a rows x cols matrix off row i and column
    j, kept by its projection at (i, j); IndexError unless both exist."""
    _check_index(rows, i)
    _check_index(cols, j)
    return [r * cols + c for r in range(rows) if r != i - 1
            for c in range(cols) if c != j - 1]


@lru_cache(maxsize=256)
def _cut(rows: int, cols: int, i: int, j: int):
    """The function from the row-major entries of a rows x cols matrix to
    the row-major entries of its projection at (i, j), one itemgetter."""
    return tuple_getter(_kept(rows, cols, i, j))


def tensor_lift(t: Tensor, idx: IndexTriple) -> Tensor:
    """Lift every term to dimension n+1; tensor_project(result, idx) == t."""
    _check_index(t.dim + 1, *idx)
    return map_factors(t, matrix_lift, idx, t.dim + 1)


def zeroing_family_sum(t: Tensor) -> Tensor:
    """Sum of all n^3 zeroed copies of t, by term concatenation.

    For a multiplication tensor the result equals (n-1)^3 times t as a
    trilinear form.  Unverified input is processed anyway (the identity's
    failure is itself informative) but triggers a warning.
    """
    if not is_matmul_tensor(t):
        warnings.warn("zeroing_family_sum input does not verify as a "
                      "multiplication tensor; the averaging identity need "
                      "not hold", stacklevel=2)
    n = t.dim
    terms = []
    for idx in product(range(1, n + 1), repeat=3):
        terms.extend(tensor_zero(t, idx).terms)
    return Tensor(n, terms)
