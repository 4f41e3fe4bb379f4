import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import (TensorFileError, read_group_file, read_isotropy_file,
                      read_tensor_file, write_group_file, write_tensor_file)
from mmtensor.cli import run

from oracles import read_tensor_file_by_lines


def test_write_read_roundtrip_builtins():
    for t in (mm.classical(1), mm.classical(3), mm.strassen(),
              mm.winograd(Fraction(5, 7)), mm.laderman(),
              mm.laderman_variant(2)):
        assert read_tensor_file(write_tensor_file(t)) == t


def test_roundtrip_keeps_zero_terms_and_order():
    t = mm.tensor_zero(mm.classical(2), (1, 1, 1))
    back = read_tensor_file(write_tensor_file(t))
    assert back.terms == t.terms  # zero terms preserved in place


def test_entries_written_as_canonical_rationals():
    t = mm.Tensor(1, [mm.term([[Fraction(-3, 4)]], [[Fraction(6, 3)]],
                              [[1]])])
    text = write_tensor_file(t, lam=Fraction(6, 3))
    assert text == "dim 1\nlambda 2\nterms 1\nterm\n-3/4\n2\n1\n"


def test_lambda_metadata_line():
    text = write_tensor_file(mm.winograd(2), lam=2)
    assert "lambda 2" in text.splitlines()[1]
    assert read_tensor_file(text) == mm.winograd(2)
    assert "lambda -3/7" in write_tensor_file(mm.winograd(2), lam="-3/7")
    # a float is no exact rational: 0.1 would be written 3602879701896397/...
    with pytest.raises(TypeError, match="exact rational"):
        write_tensor_file(mm.winograd(2), lam=0.1)


def test_comments_and_blank_lines_ignored():
    text = write_tensor_file(mm.classical(1))
    noisy = "# header\n\n" + text.replace("\nterm\n", "\nterm  # a term\n")
    assert read_tensor_file(noisy) == mm.classical(1)


def test_malformed_inputs():
    good = write_tensor_file(mm.classical(2))
    with pytest.raises(TensorFileError, match="malformed rational"):
        read_tensor_file(good.replace("1 0", "x 0", 1))
    with pytest.raises(TensorFileError, match="ragged"):
        read_tensor_file(good.replace("1 0", "1 0 0", 1))
    with pytest.raises(TensorFileError, match="trailing"):
        read_tensor_file(good + "leftover\n")
    with pytest.raises(TensorFileError, match="unexpected end"):
        read_tensor_file("dim 2\nterms 1\n")
    with pytest.raises(TensorFileError, match="expected 'dim"):
        read_tensor_file("terms 0\n")
    with pytest.raises(TensorFileError, match="malformed rational"):
        read_tensor_file("dim 1\nterms 1\nterm\n1/0\n1\n1\n")
    with pytest.raises(TensorFileError,
                       match="line 2: malformed rational '1/2 junk'"):
        read_tensor_file("dim 1\nlambda 1/2 junk\nterms 0\n")
    for text in ("dim 1\nlambda\nterms 0\n",
                 "dim 1\nlambda  # no value\nterms 0\n"):
        with pytest.raises(TensorFileError,
                           match="line 2: 'lambda' needs a value"):
            read_tensor_file(text)


@pytest.mark.parametrize("token", ["0.5", "1e3", "1_000", "1/-2"])
def test_only_integers_and_p_over_q(token):
    """The format has integers and p/q only, in ASCII digits."""
    with pytest.raises(TensorFileError,
                       match=f"line 4: malformed rational '{token}'"):
        read_tensor_file(f"dim 1\nterms 1\nterm\n{token}\n1\n1\n")
    with pytest.raises(TensorFileError,
                       match=f"line 2: malformed rational '{token}'"):
        read_tensor_file(f"dim 1\nlambda {token}\nterms 0\n")


@pytest.mark.parametrize("row, token", [
    ("1/0 x", "1/0"), ("x 1/0", "x"), ("1 1/0 1", "1/0"),
    ("1 \u0662", "\u0662"), ("+1/2 1/+2", "1/+2")])
def test_first_malformed_token_of_a_row_wins(row, token):
    """A malformed token is reported before a ragged row, and the first
    malformed token of the row is the one named."""
    with pytest.raises(TensorFileError,
                       match=re.escape(f"line 4: malformed rational '{token}'")):
        read_tensor_file(f"dim 2\nterms 1\nterm\n{row}\n")


def test_entry_past_int_digit_limit_is_malformed():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() has no digit limit in this interpreter")
    token = "9" * (limit + 1)
    with pytest.raises(TensorFileError,
                       match=f"line 4: malformed rational '{token}'"):
        read_tensor_file(f"dim 1\nterms 1\nterm\n{token}\n1\n1\n")


@pytest.mark.parametrize("text, message", [
    ("dim 2.5\nterms 0\n", "line 1: malformed count"),
    ("dim 0\nterms 0\n", "line 1: 'dim' must be at least 1"),
    ("dim 2\nterms x\n", "line 2: malformed count"),
    ("dim 2\nterms -1\n", "line 2: 'terms' must be at least 0"),
    ("dim \u0662\nterms 0\n", "line 1: malformed count"),
    ("dim 1_0\nterms 0\n", "line 1: malformed count"),
    ("dim 2\nterms \uff10\n", "line 2: malformed count"),
    ("dim 2\nterms " + "1" * 641 + "\n", "line 2: malformed count"),
], ids=["non-integer-dim", "non-positive-dim", "non-integer-terms",
        "negative-terms", "arabic-indic-dim", "underscore-dim",
        "fullwidth-terms", "641-digit-terms"])
def test_malformed_counts(text, message):
    with pytest.raises(TensorFileError, match=message):
        read_tensor_file(text)


def test_dim_bounded_like_classical(tmp_path, capsys):
    """Verification builds dim**3 coefficients, so a two-line file with a
    huge dim once made `verify` run for minutes; dim stops at 16."""
    assert read_tensor_file("dim 16\nterms 0\n") == mm.Tensor(16)
    for n in (17, 3000):
        with pytest.raises(TensorFileError,
                           match=f"line 1: 'dim' must be at most 16, got {n}"):
            read_tensor_file(f"dim {n}\nterms 0\n")
    path = tmp_path / "huge.tensor"
    path.write_text("dim 3000\nterms 0\n")
    assert run(["verify", "--tensor", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'dim' must be at most 16" in err


_FRACTION = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                st.integers(1, 10 ** 6)))


@st.composite
def _pq_tensors(draw):
    n = draw(st.integers(1, 3))
    mat = st.lists(st.lists(_FRACTION, min_size=n, max_size=n),
                   min_size=n, max_size=n).map(mm.Matrix)
    terms = st.builds(mm.RankOneTerm, mat, mat, mat)
    return mm.Tensor(n, draw(st.lists(terms, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(_pq_tensors())
def test_write_read_roundtrip_pq(t):
    text = write_tensor_file(t)
    assert read_tensor_file(text) == t
    # each row is written as str() of its Fractions
    assert [line for line in text.splitlines()[2:] if line != "term"] == [
        " ".join(map(str, row)) for tm in t.terms
        for m in (tm.a, tm.b, tm.c) for row in m.row_list()]


# Lines of the format, near misses of them, and other text.
_LINE = st.one_of(
    st.sampled_from(["dim 1", "dim 2", "lambda 3/4", "lambda", "terms 0",
                     "terms 1", "terms 2", "term", "1", "0 1", "1/2 -3",
                     "2/4 +3", "-0 0/5", "1/0", "1 2 3", "# note"]),
    st.text(st.sampled_from("0123456789/+- \t#abdeimrstx.\u0662\u00b2"),
            max_size=12))


@st.composite
def _edited_files(draw):
    """A written tensor file with up to three lines replaced, inserted or
    deleted."""
    lines = write_tensor_file(draw(_pq_tensors()),
                              draw(st.none() | _FRACTION)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit != "insert":
            del lines[pos:pos + 1]
        if edit != "delete":
            lines.insert(pos, draw(_LINE))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_edited_files(), st.lists(_LINE, max_size=12).map("\n".join),
                 st.text(max_size=40)))
def test_read_closed_error_surface(text):
    """Any text gives a tensor or a TensorFileError, nothing else."""
    try:
        assert isinstance(read_tensor_file(text), mm.Tensor)
    except TensorFileError:
        pass


@st.composite
def _token(draw):
    """(text, value): p or p/q in a non-canonical spelling: a '+' sign,
    '-0', leading zeros, an unreduced or unit denominator."""
    p, q = draw(st.integers(-99, 99)), draw(st.integers(1, 99))
    k = draw(st.integers(1, 5))
    signs = ["-"] if p < 0 else ["", "+", "-"] if p == 0 else ["", "+"]
    sign = draw(st.sampled_from(signs))
    zeros = "0" * draw(st.integers(0, 2))
    text = f"{sign}{zeros}{abs(p) * k}"
    if q * k != 1 or draw(st.booleans()):
        text += f"/{q * k}"
    return text, Fraction(p, q)


def test_non_canonical_tokens_read_as_their_values():
    text = "dim 2\nterms 1\nterm\n2/4 +3\n-0 0/5\n1 0\n0 1\n1 0\n0 1\n"
    (tm,) = read_tensor_file(text).terms
    assert tm.a == mm.Matrix([[Fraction(1, 2), 3], [0, 0]])
    assert tm.a.den == 2 and tm.a.num == (1, 6, 0, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_token(), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_non_canonical_tokens_read_as_fractions(rows):
    n = len(rows)
    body = "\n".join(" ".join(text for text, _ in row) for row in rows)
    one = "\n".join(" ".join("1" for _ in range(n)) for _ in range(n))
    (tm,) = read_tensor_file(f"dim {n}\nterms 1\nterm\n{body}\n{one}\n"
                             f"{one}\n").terms
    assert tm.a == mm.Matrix([[value for _, value in row] for row in rows])


_LONG = "-" + "7" * 640  # the longest digit run the format takes


@st.composite
def _spelled_factor(draw, n):
    """n rows of n tokens each, spelled as _token does or 640 digits long,
    joined by runs of spaces and tabs."""
    gap = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
    token = _token().map(lambda tv: tv[0]) | st.just(_LONG)
    rows = []
    for _ in range(n):
        first, *rest = draw(st.lists(token, min_size=n, max_size=n))
        rows.append(first + "".join(draw(gap) + tok for tok in rest))
    return rows


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(_spelled_factor(n), min_size=3, max_size=3)))
def test_read_matches_plain_fraction_parse(factors):
    """Each entry reads as Fraction(token) does: integer-only factors and
    factors that mix ints with p/q, any whitespace between tokens."""
    n = len(factors[0])
    body = "\n".join(row for rows in factors for row in rows)
    (tm,) = read_tensor_file(f"dim {n}\nterms 1\nterm\n{body}\n").terms
    for m, rows in zip((tm.a, tm.b, tm.c), factors):
        assert m.row_list() == [[Fraction(tok) for tok in row.split()]
                                for row in rows]


@pytest.mark.parametrize("rows, lineno, token", [
    (["1 2", "3 1/0"], 5, "1/0"),
    (["1/2 2", "3 -1/00", "x"], 5, "-1/00"),
    (["1 2 3", "4 5 6", "7 1/0", "1 2"], 6, "1/0"),
    (["1 2", "1 2", "1/3 4", "5 6", "7 8/0"], 8, "8/0")])
def test_zero_denominator_on_a_later_row_is_named(rows, lineno, token):
    """A row with a zero denominator is refused as it is read, naming the
    token, before the rows that follow it are looked at."""
    n = len(rows[0].split())
    text = f"dim {n}\nterms 1\nterm\n" + "\n".join(rows) + "\n"
    with pytest.raises(TensorFileError, match=re.escape(
            f"line {lineno}: malformed rational '{token}'")):
        read_tensor_file(text)


@pytest.mark.parametrize("bad, message", [
    ("0 x", "malformed rational 'x'"),
    ("0 1 1", "ragged matrix, expected 2 entries, got 3"),
    ("1/0 1", "malformed rational '1/0'")])
@pytest.mark.parametrize("later", ["missing-term", "trailing-content"])
def test_bad_row_is_named_before_a_later_fault(bad, message, later):
    """A bad row at line 5 is the error, also when the body is refused as
    a whole: its second 'term' is missing, or content trails it."""
    term = ["term", "1 0", "0 1", "1 0", "0 1", "1 0", "0 1"]
    lines = ["dim 2", "terms 2", *term, *term]
    lines[4] = bad
    if later == "missing-term":
        del lines[9]
    else:
        lines.append("leftover")
    with pytest.raises(TensorFileError,
                       match=re.escape(f"line 5: {message}")):
        read_tensor_file("\n".join(lines))


def test_short_body_is_unexpected_end():
    lines = write_tensor_file(mm.classical(2)).splitlines()
    for cut in (3, 4, 10, len(lines) - 1):
        with pytest.raises(TensorFileError,
                           match="^unexpected end of file$"):
            read_tensor_file("\n".join(lines[:cut]) + "\n# end\n")


def test_classical_9_roundtrip():
    """729 terms of 9 x 9 factors, 19683 rows, int and p/q, read back."""
    t = mm.classical(9)
    for u in (t, mm.Tensor(9, [tm.scaled(Fraction(-2, 3)) for tm in t.terms])):
        assert read_tensor_file(write_tensor_file(u)) == u


def _outcome(read, text):
    """read(text), or the type and message of the exception it raised."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


# Tokens at the edges of the entry grammar: 640 digits is the longest run.
_EDGE_TOKEN = st.sampled_from([
    "7" * 640, "-" + "7" * 640, "7" * 641, "1/" + "9" * 640,
    "1/" + "9" * 641, "1/0", "-3/00", "1/-2", "1/+2", "+0/7", "x"])


@st.composite
def _respelled_files(draw):
    """A written file of dim 1-4 (zero factors and 'terms 0' included),
    maybe with one word swapped for an edge token, respelled: lines
    indented, commented or apart by blank lines, words apart by spaces,
    tabs or NBSP, LF or CRLF endings."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-2, 2) | _FRACTION
    mat = (st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n,
                    max_size=n).map(mm.Matrix) | st.just(mm.Matrix.zeros(n)))
    terms = st.lists(st.builds(mm.RankOneTerm, mat, mat, mat), max_size=3)
    text = write_tensor_file(mm.Tensor(n, draw(terms)),
                             draw(st.none() | _FRACTION))
    lines = [line.split(" ") for line in text.splitlines()]
    if draw(st.booleans()):
        words = lines[draw(st.integers(0, len(lines) - 1))]
        words[draw(st.integers(0, len(words) - 1))] = draw(_EDGE_TOKEN)
    gap = st.sampled_from([" ", "  ", "\t", "\u00a0", " \t\u00a0"])
    pad = st.sampled_from(["", " ", "\t ", "\u00a0"])
    tail = st.sampled_from(["", " ", "  # note", "#"])
    extra = st.sampled_from(["", "   ", "# comment", "\t# x"])
    out = []
    for words in lines:
        if draw(st.booleans()):
            out.append(draw(extra))
        out.append(draw(pad) + draw(gap).join(words) + draw(tail))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_edited_files(), _respelled_files()))
def test_read_agrees_with_line_reader(text):
    """The bulk reader reads every text as a line-by-line reader does: an
    equal Tensor, or the same exception type and message."""
    assert (_outcome(read_tensor_file, text)
            == _outcome(read_tensor_file_by_lines, text))


def test_group_file_roundtrip():
    K = mm.klein_group()
    text = write_group_file(K)
    back = read_group_file(text)
    assert isinstance(back, mm.IsotropyGroup) and len(back) == 4
    partial = mm.Tensor(3, [mm.RankOneTerm(*g.factors()) for g in list(K)[:3]])
    with pytest.raises(ValueError, match="not closed"):
        read_group_file(write_tensor_file(partial))
    assert [g.factors() for g in back] == [g.factors() for g in K]


def test_isotropy_file():
    text = write_group_file(mm.klein_group())
    isos = read_isotropy_file(text)
    assert len(isos) == 4
    assert isos[0].factors()[0] == mm.Matrix.identity(3)
