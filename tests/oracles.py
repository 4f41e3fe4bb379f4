"""Plain versions of checks and parsers that only the tests use.

`read_tensor_file_by_lines` is a line-by-line tensor-file reader: one
logical line at a time, each row matched by one regex of dim entries, one
factor parsed per dim rows.  It shares the entry grammar and the header
parse of `mmtensor.tensorfile`, so a differential test against it checks
the bulk body parse of `read_tensor_file` and the order in which it finds
errors.

`merge_reference` is the greedy merge of `merge_shared_factors` run on
`Matrix` factors: keys by `projective_key`, leads as Fractions and each
fold by `Matrix.scale` and `+`, so a differential test against it checks
the flat-int fold of `mmtensor.tensor`.
"""

import re
from functools import cache
from math import lcm

from mmtensor import Matrix, RankOneTerm, Tensor, act, form_equal
from mmtensor.matrix import RATIONAL, parse_rational, projective_key
from mmtensor.tensor import MAX_CLASSICAL_SIZE
from mmtensor.tensorfile import TensorFileError, _parse_count


def is_invertible(m: Matrix) -> bool:
    return m.is_square() and m.rank() == m.rows


def perm_matrix(sp) -> Matrix:
    """The matrix of a SignedPerm: column j holds its sign in row f(j)."""
    n = len(sp.images)
    num = [0] * (n * n)
    for j, (r, s) in enumerate(sp.images):
        num[(r - 1) * n + j] = s
    return Matrix.from_ints(1, n, num)


def merge_reference(t: Tensor) -> Tensor:
    """merge_shared_factors(t) on RankOneTerms: each step scans the live
    terms in order and folds the least pair (i, j) met under one key
    (pair, class, class) into position i, dropping it if it is zero."""
    units = {}

    def pair_keys(tm):
        a, b, c = (units.setdefault(projective_key(f), len(units))
                   for f in (tm.a, tm.b, tm.c))
        return (0, a, b), (1, a, c), (2, b, c)

    terms = list(t.nonzero_terms())
    keys = list(map(pair_keys, terms))
    while True:
        first = {}
        least = min(((i, j) for j, ks in enumerate(keys) for k in ks
                     if (i := first.setdefault(k, j)) < j), default=None)
        if least is None:
            return Tensor(t.dim, [tm for tm in terms if tm is not None])
        i, j = least
        new = _merge_pair(terms[i], keys[i], terms[j], keys[j])
        terms[j], keys[j] = None, ()
        if new.is_zero():
            terms[i], keys[i] = None, ()
        else:
            terms[i], keys[i] = new, pair_keys(new)


def _merge_pair(u: RankOneTerm, ku, v: RankOneTerm, kv) -> RankOneTerm:
    """Fold u into v along the first factor pair whose keys in ku and kv
    agree; u's scales, read off the leads, go into its third factor."""
    x, y = next(pair for pair, k, l in zip(((0, 1), (0, 2), (1, 2)), ku, kv)
                if k == l)
    z = 3 - x - y
    fu, fv = (u.a, u.b, u.c), [v.a, v.b, v.c]
    scale = _lead(fu[x]) / _lead(fv[x]) * (_lead(fu[y]) / _lead(fv[y]))
    fv[z] = fu[z].scale(scale) + fv[z]
    return RankOneTerm(*fv)


def _lead(m: Matrix):
    """The first nonzero entry of m, row-major, as a Fraction."""
    return next(v for _, _, v in m.entries())


def is_form_stabilized(g, t: Tensor) -> bool:
    """True iff acting by g leaves the trilinear form unchanged."""
    return form_equal(act(g, t), t)


@cache
def _row_pattern(dim: int) -> re.Pattern:
    """A row of exactly dim whitespace-separated entries p or p/q, q != 0."""
    entry = RATIONAL.pattern
    return re.compile(rf"{entry}(?:\s+{entry}){{{dim - 1}}}")


def _row_error(lineno: int, line: str, dim: int) -> TensorFileError:
    """The error of a row that _row_pattern(dim) refuses: its first token
    that is no entry p or p/q with q != 0, else its entry count."""
    tokens = line.split()
    bad = next((tok for tok in tokens if not RATIONAL.fullmatch(tok)), None)
    if bad is not None:
        return TensorFileError(f"line {lineno}: malformed rational {bad!r}")
    return TensorFileError(f"line {lineno}: ragged matrix, expected {dim} "
                           f"entries, got {len(tokens)}")


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_tensor_file_by_lines(text: str) -> Tensor:
    lines = _logical_lines(text)

    def next_line():
        for item in lines:
            return item
        raise TensorFileError("unexpected end of file")

    dim = _parse_count(*next_line(), "dim", minimum=1,
                       maximum=MAX_CLASSICAL_SIZE)
    row_ok = _row_pattern(dim).fullmatch
    lineno, line = next_line()
    key, *value = line.split(None, 1)
    if key == "lambda":
        if not value:
            raise TensorFileError(f"line {lineno}: 'lambda' needs a value")
        try:
            parse_rational(value[0])
        except ValueError:
            raise TensorFileError(
                f"line {lineno}: malformed rational {value[0]!r}")
        lineno, line = next_line()
    nterms = _parse_count(lineno, line, "terms", minimum=0)

    terms = []
    for _ in range(nterms):
        lineno, line = next_line()
        if line != "term":
            raise TensorFileError(f"line {lineno}: expected 'term'")
        mats = []
        for _ in range(3):
            rows = []
            for _ in range(dim):
                lineno, line = next_line()
                if not row_ok(line):
                    raise _row_error(lineno, line, dim)
                rows.append(line)
            mats.append(_factor(rows))
        terms.append(RankOneTerm(*mats))
    for lineno, _ in lines:
        raise TensorFileError(f"line {lineno}: trailing content")
    return Tensor(dim, terms)


def _factor(rows) -> Matrix:
    """The square matrix of rows, lines of entries p or p/q with q != 0:
    ints read by int() over den 1 unless some line has a '/'."""
    dim = len(rows)
    if not any("/" in row for row in rows):
        return Matrix.from_ints(1, dim, [int(tok) for row in rows
                                         for tok in row.split()])
    ratios = [(int(p), int(q or 1)) for row in rows for p, _, q in
              (tok.partition("/") for tok in row.split())]
    den = lcm(*(q for _, q in ratios))
    return Matrix.from_ints(den, dim, [p * (den // q) for p, q in ratios])
