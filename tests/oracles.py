"""Plain versions of checks and parsers that only the tests use.

`read_tensor_file_by_lines` is a line-by-line tensor-file reader: one
logical line at a time, each row matched by one regex of dim entries, one
factor parsed per dim rows.  It shares the entry grammar and the header
parse of `mmtensor.tensorfile`, so a differential test against it checks
the bulk body parse of `read_tensor_file` and the order in which it finds
errors.
"""

import re
from functools import cache
from math import lcm

from mmtensor import Matrix, RankOneTerm, Tensor, act, form_equal
from mmtensor.matrix import parse_rational
from mmtensor.tensor import MAX_CLASSICAL_SIZE
from mmtensor.tensorfile import _ENTRY, TensorFileError, _parse_count


def is_invertible(m: Matrix) -> bool:
    return m.is_square() and m.rank() == m.rows


def perm_matrix(sp) -> Matrix:
    """The matrix of a SignedPerm: column j holds its sign in row f(j)."""
    n = len(sp.images)
    rows = [[0] * n for _ in range(n)]
    for j, (r, s) in enumerate(sp.images):
        rows[r - 1][j] = s
    return Matrix.from_ints(1, rows)


def is_form_stabilized(g, t: Tensor) -> bool:
    """True iff acting by g leaves the trilinear form unchanged."""
    return form_equal(act(g, t), t)


@cache
def _row_pattern(dim: int) -> re.Pattern:
    """A row of exactly dim whitespace-separated entries p or p/q, q != 0."""
    return re.compile(rf"{_ENTRY.pattern}(?:\s+{_ENTRY.pattern}){{{dim - 1}}}")


def _row_error(lineno: int, line: str, dim: int) -> TensorFileError:
    """The error of a row that _row_pattern(dim) refuses: its first token
    that is no entry p or p/q with q != 0, else its entry count."""
    tokens = line.split()
    bad = next((tok for tok in tokens if not _ENTRY.fullmatch(tok)), None)
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
        except (ValueError, ZeroDivisionError):
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
    """The matrix of rows, lines of entries p or p/q with q != 0: ints
    read by int() over den 1 unless some line has a '/'."""
    if not any("/" in row for row in rows):
        return Matrix.from_ints(1, [list(map(int, row.split()))
                                    for row in rows])
    rows = [[(int(p), int(q or 1)) for p, _, q in
             (tok.partition("/") for tok in row.split())] for row in rows]
    den = lcm(*(q for row in rows for _, q in row))
    return Matrix.from_ints(den, [[p * (den // q) for p, q in row]
                                  for row in rows])
