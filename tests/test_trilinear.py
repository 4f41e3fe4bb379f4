from fractions import Fraction

import pytest

import mmtensor as mm
from mmtensor import TrilinearSyntaxError, parse_trilinear, print_trilinear

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
    with pytest.raises(ValueError):
        parse_trilinear("L*a11*b11*c11", lam=0)


def test_parse_repeated_atom_accumulates():
    t = parse_trilinear("(a11+a11)*b11*c11")
    assert t.terms[0].a[1, 1] == 2


def test_parse_zero():
    t = parse_trilinear("0")
    assert t.dim == 1 and len(t.terms) == 0
    assert print_trilinear(t) == "0"


def test_parse_errors():
    cases = [
        "a11*b11",                 # missing c form
        "a11*a11*c11",             # duplicate letter
        "a11*b11*c11 c11",         # junk between products
        "(a11+b11)*b11*c11",       # mixed letters in a linear form
        "a01*b11*c11",             # zero index
        "a1*b11*c11",              # one-digit index
        "2a11*b11*c11",            # implicit multiplication
        "a11*b11*c11 +",           # dangling operator
        "1/0*a11*b11*c11",         # zero denominator
        "0 junk",
    ]
    for text in cases:
        with pytest.raises(TrilinearSyntaxError):
            parse_trilinear(text)


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
