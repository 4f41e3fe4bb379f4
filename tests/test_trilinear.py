import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import (Matrix, RankOneTerm, Tensor, TrilinearSyntaxError,
                      parse_trilinear, print_trilinear)

from conftest import canonical_terms


def test_parse_single_monomial():
    t = parse_trilinear("a11*b11*c11")
    assert t.dim == 1
    assert mm.is_matmul_tensor(t)


def test_parse_infers_dimension():
    assert parse_trilinear("a11*b13*c31").dim == 3
    assert parse_trilinear("a99*b99*c99").dim == 9


def test_parse_factor_order_free():
    t1 = parse_trilinear("a12*b21*c11")
    t2 = parse_trilinear("c11*a12*b21")
    assert t1 == t2


def test_parse_signs_and_coefficients():
    t = parse_trilinear("-a11*b11*c11 + (2*a11-1/2*a12)*b21*c11")
    assert len(t.terms) == 2
    assert t.terms[0].a[1, 1] == -1
    assert t.terms[1].a[1, 1] == 2 and t.terms[1].a[1, 2] == Fraction(-1, 2)


def test_parse_lambda_symbol():
    t = parse_trilinear("(L*a11 + 1/L*a12)*b11*c11", lam=Fraction(5, 7))
    assert t.terms[0].a[1, 1] == Fraction(5, 7)
    assert t.terms[0].a[1, 2] == Fraction(7, 5)
    with pytest.raises(ValueError, match="lam must be nonzero"):
        parse_trilinear("(L*a11)*b11*c11", lam=0)


def test_parse_repeated_atom_accumulates():
    t = parse_trilinear("(a11+a11)*b11*c11")
    assert t.terms[0].a[1, 1] == 2


def test_parse_zero():
    t = parse_trilinear("0")
    assert t.dim == 1 and len(t.terms) == 0
    assert print_trilinear(t) == "0"


def test_parse_errors():
    cases = [
        ("a11*b11", r"expected '\*'"),                    # missing c form
        ("a11*a11*c11", "two 'a' linear forms"),          # duplicate letter
        ("a11*b11*c11 c11", r"expected '\+' or '-'"),     # products not joined
        ("(a11+b11)*b11*c11", "mixed letters 'a' and 'b'"),
        ("a01*b11*c11", "indices are 1-based"),           # zero index
        ("a1*b11*c11", "expected an atom"),               # one-digit index
        ("2a11*b11*c11", "expected an atom"),             # implicit product
        ("a11*b11*c11 +", "expected an atom"),            # dangling operator
        ("(1/0*a11)*b11*c11", "zero denominator"),
        ("0 junk", "junk after '0'"),
    ]
    for text, message in cases:
        with pytest.raises(TrilinearSyntaxError, match=message):
            parse_trilinear(text)


@pytest.mark.parametrize("text", [
    "a\u0661\u0661*b11*c11",          # Arabic-Indic digits
    "a1\u00b2*b11*c11",               # superscript two
    "(\u0661*a11)*b11*c11",            # Arabic-Indic coefficient
    "(" + "7" * 5000 + "*a11)*b11*c11",  # more digits than int() converts
], ids=["arabic-indic-index", "superscript-index", "arabic-indic-coefficient",
        "5000-digit-coefficient"])
def test_only_ascii_numbers(text):
    """Indices and coefficients are ASCII digits; anything else is a
    syntax error, never a silent reading or a bare ValueError."""
    with pytest.raises(TrilinearSyntaxError):
        parse_trilinear(text)


def test_number_length_bound_ignores_int_digit_limit():
    """Numbers of up to 640 digits parse and longer ones are syntax errors,
    with int()'s digit limit switched off as well as on."""
    def coeff(digits):
        text = f"({'7' * digits}*a11)*b11*c11"
        return parse_trilinear(text).terms[0].a[1, 1]

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        for off in (False, True):
            if off and limit is not None:
                sys.set_int_max_str_digits(0)
            assert coeff(640) == int("7" * 640)
            for digits in (641, 5000):
                with pytest.raises(TrilinearSyntaxError, match="longer than"):
                    coeff(digits)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("abcL0123456789+-*/() \n\u0661\u00b2\uff10x"),
               max_size=40))
def test_parse_closed_error_surface(text):
    """Any text gives a tensor or a TrilinearSyntaxError, nothing else."""
    try:
        assert isinstance(parse_trilinear(text), Tensor)
    except TrilinearSyntaxError:
        pass


def test_syntax_error_carries_position():
    with pytest.raises(TrilinearSyntaxError) as err:
        parse_trilinear("a11*b11*x11")
    assert err.value.pos == 8
    assert "position" in str(err.value)


def test_print_roundtrip_builtins():
    builtins = [mm.classical(1), mm.classical(2), mm.classical(3),
                mm.strassen(), mm.winograd(2), mm.laderman(),
                mm.laderman_variant(1), mm.laderman_variant(Fraction(-3, 7))]
    for t in builtins:
        back = parse_trilinear(print_trilinear(t))
        assert back.dim == t.dim
        assert back.terms == t.nonzero_terms()


def test_print_roundtrip_fractional_coefficients():
    t = parse_trilinear("(-1/2*a11+3*a12)*(b11-b12)*(-c21)")
    back = parse_trilinear(print_trilinear(t))
    assert canonical_terms(back) == canonical_terms(t)
    assert mm.form_equal(back, t)


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_tensors(draw):
    n = draw(st.integers(1, 3))
    mat = st.lists(st.lists(small_fraction, min_size=n, max_size=n),
                   min_size=n, max_size=n).map(Matrix)
    terms = draw(st.lists(st.tuples(mat, mat, mat), max_size=4))
    return Tensor(n, [RankOneTerm(*ms) for ms in terms])


@settings(max_examples=50, deadline=None)
@given(small_tensors())
def test_print_parse_roundtrip(t):
    """Parsing the printed text gives back the nonzero terms, entry for
    entry; the dimension is the largest index they use."""
    back = parse_trilinear(print_trilinear(t))

    def entries(terms):
        return [[list(m.entries()) for m in (tm.a, tm.b, tm.c)]
                for tm in terms]

    assert entries(back.terms) == entries(t.nonzero_terms())
    used = [max(i, j) for row in entries(back.terms) for form in row
            for i, j, _ in form]
    assert back.dim == max(used, default=1) <= t.dim


def test_print_spacing_and_bare_factors():
    t = parse_trilinear("(-1/2*a11+3*a12)*(b11-b12)*(-c21) + a22*(2*b22)*c22")
    assert print_trilinear(t) == ("(-1/2*a11 + 3*a12)*(b11 - b12)*(-c21)\n"
                                  "+ a22*(2*b22)*c22")


def test_print_refuses_two_digit_indices():
    # a110 would read back as a11 followed by junk
    with pytest.raises(ValueError, match="n <= 9"):
        print_trilinear(mm.classical(10))

def test_laderman_fixture_text_parses():
    from importlib import resources
    text = (resources.files("mmtensor") / "data" / "laderman.txt").read_text()
    t = parse_trilinear(text)
    assert mm.is_matmul_tensor(t) and len(t.terms) == 23
