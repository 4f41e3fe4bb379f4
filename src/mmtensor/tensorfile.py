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

from itertools import islice
from math import gcd, lcm

from .isotropy import Isotropy, IsotropyGroup
from .matrix import RATIONAL, Matrix, as_fraction, parse_int, parse_rational
from .tensor import MAX_CLASSICAL_SIZE, RankOneTerm, Tensor


class TensorFileError(ValueError):
    pass


def _row_error(lineno: int, line: str, dim: int) -> TensorFileError | None:
    """The error of a row, None if it has none: its first token that is no
    entry p or p/q with q != 0, else a token count other than dim."""
    tokens = line.split()
    bad = next((tok for tok in tokens if not RATIONAL.fullmatch(tok)), None)
    if bad is not None:
        return TensorFileError(f"line {lineno}: malformed rational {bad!r}")
    if len(tokens) != dim:
        return TensorFileError(f"line {lineno}: ragged matrix, expected "
                               f"{dim} entries, got {len(tokens)}")
    return None


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
    """m's rows, slices of num, as canonical entries p or p/q over den:
    entry v is (v/g)/(den/g), g = gcd(v, den), p alone when den/g is 1."""
    den, rows = m.den, m.row_slices()
    if den == 1:
        return [" ".join(map(str, row)) for row in rows]
    return [" ".join(f"{v // g}/{q}" if (q := den // (g := gcd(v, den))) != 1
                     else str(v // g) for v in row) for row in rows]


def read_tensor_file(text: str) -> Tensor:
    """Parse the tensor file format; exact inverse of write_tensor_file.

    The body is read in bulk: logical lines, entries, one regex match and
    int() per distinct entry, one factor per dim**2 entries.  A refused
    file names its first line at fault."""
    raw = text.splitlines()
    if "#" in text:
        raw = [line.split("#", 1)[0] for line in raw]
    numbered = ((lineno, line) for lineno, part in enumerate(raw, 1)
                if (line := part.strip()))
    head = list(islice(numbered, 3))

    def line_at(k):
        if k < len(head):
            return head[k]
        raise TensorFileError("unexpected end of file")

    # dim is bounded like builtin:classical-N, for census's n**3 projections.
    dim = _parse_count(*line_at(0), "dim", minimum=1,
                       maximum=MAX_CLASSICAL_SIZE)
    lineno, line = line_at(1)
    key, *value = line.split(None, 1)
    if key == "lambda":
        if not value:
            raise TensorFileError(f"line {lineno}: 'lambda' needs a value")
        try:
            parse_rational(value[0])
        except ValueError:
            raise TensorFileError(
                f"line {lineno}: malformed rational {value[0]!r}")
    start = 3 if key == "lambda" else 2
    nterms = _parse_count(*line_at(start - 1), "terms", minimum=0)

    step = 1 + 3 * dim
    body = list(filter(None, map(str.strip, raw)))[start:]
    if len(body) == nterms * step and all(map("term".__eq__, body[::step])):
        del body[::step]
        tokens = " ".join(body).split()
        entries = set(tokens)
        if (all(map(dim.__eq__, map(len, map(str.split, body))))
                and all(map(RATIONAL.fullmatch, entries))):
            return Tensor(dim, _terms(tokens, entries, dim))
    # numbered resumes at the logical line after the three in head.
    raise _body_error(head[start:] + list(numbered), nterms, dim)


def _terms(tokens, entries, dim: int) -> list[RankOneTerm]:
    """The rank-one terms of a body's tokens, entries p or p/q with q != 0,
    and of their set entries: each distinct token parsed once, each factor
    the row-major ints of its dim**2 tokens over the lcm of their q's."""
    size = dim * dim
    if not any("/" in tok for tok in entries):
        nums = [*map({tok: int(tok) for tok in entries}.__getitem__, tokens)]
        mats = [Matrix.from_ints(1, dim, nums[k:k + size])
                for k in range(0, len(nums), size)]
    else:
        ratio = {tok: (int(p), int(q or 1)) for tok in entries
                 for p, _, q in [tok.partition("/")]}
        nums, dens = zip(*map(ratio.__getitem__, tokens))
        mats = []
        for k in range(0, len(nums), size):
            num, qs = nums[k:k + size], dens[k:k + size]
            if (den := lcm(*qs)) != 1:
                num = [p * (den // q) for p, q in zip(num, qs)]
            mats.append(Matrix.from_ints(den, dim, num))
    return [RankOneTerm(*mats[k:k + 3]) for k in range(0, len(mats), 3)]


def _body_error(body, nterms: int, dim: int) -> TensorFileError:
    """The first error, in file order, of a refused body: the (lineno, line)
    logical lines after 'terms'."""
    step = 1 + 3 * dim
    for k, (lineno, line) in enumerate(body[:nterms * step]):
        if k % step == 0:
            if line != "term":
                return TensorFileError(f"line {lineno}: expected 'term'")
        elif error := _row_error(lineno, line, dim):
            return error
    if len(body) < nterms * step:
        return TensorFileError("unexpected end of file")
    return TensorFileError(f"line {body[nterms * step][0]}: trailing content")


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
