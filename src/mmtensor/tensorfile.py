"""Plain-text interchange format for tensors, isotropies and groups.

Layout::

    dim 2
    lambda 1          # optional metadata, a rational
    terms 7
    term
    1 0               # a factor, dim rows
    0 1
    1 0               # b factor
    0 1
    1 0               # c factor
    0 1
    term
    ...

Entries are integers or 'p/q' rationals, written canonically (q >= 1,
gcd(p, q) = 1).  Comments start with '#'.  Write then read is the identity on
tensors, including zero terms and term order.

Isotropy and group files use the same layout: each element is stored as one
term of three matrices (group files list the identity first).
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd, lcm

from .isotropy import Isotropy, IsotropyGroup
from .matrix import (INTEGER, MAX_DIGITS, Matrix, as_fraction, parse_int,
                     parse_rational)
from .tensor import MAX_CLASSICAL_SIZE, RankOneTerm, Tensor


class TensorFileError(ValueError):
    pass


# One matrix entry p or p/q, q != 0: RATIONAL with a nonzero digit in q.
_ENTRY = re.compile(
    rf"{INTEGER.pattern}(?:/(?=0*[1-9])[0-9]{{1,{MAX_DIGITS}}})?")


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


def _parse_count(lineno: int, line: str, key: str, minimum: int,
                 maximum: int | None = None) -> int:
    """The N of a 'key N' line, an ASCII integer in minimum..maximum."""
    parts = line.split()
    if parts[0] != key:
        raise TensorFileError(f"line {lineno}: expected '{key} N'")
    try:
        value = parse_int(" ".join(parts[1:]))  # two tokens fail too
    except ValueError:
        raise TensorFileError(f"line {lineno}: malformed count in {line!r}")
    if value < minimum:
        raise TensorFileError(
            f"line {lineno}: '{key}' must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise TensorFileError(
            f"line {lineno}: '{key}' must be at most {maximum}, got {value}")
    return value


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def write_tensor_file(t: Tensor, lam=None) -> str:
    """Serialize a tensor; lam is optional metadata recorded verbatim."""
    out = [f"dim {t.dim}"]
    if lam is not None:
        out.append(f"lambda {as_fraction(lam)}")
    out.append(f"terms {len(t.terms)}")
    for tm in t.terms:
        out.append("term")
        for m in (tm.a, tm.b, tm.c):
            out.extend(_format_rows(m))
    return "\n".join(out) + "\n"


def _format_rows(m: Matrix):
    """m's rows as canonical entries p or p/q, read off num and den: entry
    v is (v/g)/(den/g), g = gcd(v, den), written p alone when den/g is 1."""
    den = m.den
    if den == 1:
        return [" ".join(map(str, row)) for row in m.num]
    return [" ".join(f"{v // g}/{q}" if (q := den // (g := gcd(v, den))) != 1
                     else str(v // g) for v in row) for row in m.num]


def read_tensor_file(text: str) -> Tensor:
    """Parse the tensor file format; exact inverse of write_tensor_file."""
    lines = _logical_lines(text)

    def next_line():
        for item in lines:
            return item
        raise TensorFileError("unexpected end of file")

    # dim is bounded like builtin:classical-N, for census's n**3 projections.
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


def write_group_file(group: IsotropyGroup) -> str:
    """Serialize an isotropy group, one element per term, identity first."""
    t = Tensor(group.dim, (RankOneTerm(*g.factors()) for g in group))
    return write_tensor_file(t)


def read_isotropy_file(text: str) -> list[Isotropy]:
    """Read isotropies from the shared format (one per term)."""
    t = read_tensor_file(text)
    return [Isotropy(tm.a, tm.b, tm.c) for tm in t.terms]


def read_group_file(text: str) -> IsotropyGroup:
    """Read an isotropy group; ValueError unless it is a group."""
    return IsotropyGroup(read_isotropy_file(text))
