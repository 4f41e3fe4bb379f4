from fractions import Fraction

import pytest

import mmtensor as mm
from mmtensor import (TensorFileError, read_group_file, read_isotropy_file,
                      read_tensor_file, write_group_file, write_tensor_file)
from mmtensor.cli import run


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


def test_group_file_roundtrip():
    K = mm.klein_group()
    text = write_group_file(K)
    back = read_group_file(text)
    assert len(back) == 4 and back.is_closed()
    assert [g.factors() for g in back] == [g.factors() for g in K]


def test_isotropy_file():
    text = write_group_file(mm.klein_group())
    isos = read_isotropy_file(text)
    assert len(isos) == 4
    assert isos[0].factors()[0] == mm.Matrix.identity(3)
