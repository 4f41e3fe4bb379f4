import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import Matrix, contract12, emit_code, extract_schedule, op_count

from conftest import rand_matrix

STRASSEN_T_LINES = [
    "p1 = (a11 + a22) * (b11 + b22)",
    "p2 = (a12 - a22) * (b21 + b22)",
    "p3 = (-a11 + a21) * (b11 + b12)",
    "p4 = (a11 + a12) * (b22)",
    "p5 = (a11) * (b12 - b22)",
    "p6 = (a22) * (-b11 + b21)",
    "p7 = (a21 + a22) * (b11)",
]


def test_contract12_identity():
    d = contract12(mm.classical(3), Matrix.identity(3), Matrix.identity(3))
    assert d == Matrix.identity(3)
    with pytest.raises(ValueError):
        contract12(mm.classical(3), Matrix.identity(2), Matrix.identity(3))


def test_contract12_is_transposed_product(rng):
    for t in (mm.strassen(), mm.laderman(), mm.laderman_variant(1)):
        for _ in range(5):
            a, b = rand_matrix(rng, t.dim), rand_matrix(rng, t.dim)
            assert contract12(t, a, b).transpose() == a @ b


def test_schedule_agrees_with_contract12(rng):
    for t in (mm.classical(2), mm.strassen(), mm.winograd(2), mm.laderman()):
        sched = extract_schedule(t)
        for _ in range(10):
            a, b = rand_matrix(rng, t.dim), rand_matrix(rng, t.dim)
            # the schedule folds the final transpose in
            assert sched.evaluate(a, b) == contract12(t, a, b).transpose()
            assert sched.evaluate(a, b) == a @ b


def test_schedule_skips_zero_terms():
    t = mm.tensor_zero(mm.classical(2), (1, 1, 1))
    assert extract_schedule(t).num_products == mm.decomposition_length(t)


def test_op_counts():
    assert op_count(extract_schedule(mm.classical(3))) == \
        mm.OpCount(multiplications=27, additions=18,
                   scalar_multiplications=0)
    counts = op_count(extract_schedule(mm.strassen()))
    assert counts.multiplications == 7
    assert op_count(extract_schedule(mm.laderman_variant(1))).multiplications \
        == 23
    # multiplications always equals the decomposition length
    for t in (mm.strassen(), mm.laderman(), mm.winograd(Fraction(5, 7))):
        assert op_count(extract_schedule(t)).multiplications == \
            mm.decomposition_length(t)


def test_emit_code_strassen_structure():
    text = emit_code(extract_schedule(mm.strassen()))
    lines = text.strip().splitlines()
    product_lines = [ln for ln in lines if ln.startswith("p")]
    assert product_lines == STRASSEN_T_LINES
    assert [ln for ln in lines if ln.startswith("c")] == [
        "c11 = p1 + p2 - p4 + p6",
        "c12 = p4 + p5",
        "c21 = p6 + p7",
        "c22 = p1 + p3 + p5 - p7",
    ]


def test_emit_code_classical_1():
    assert emit_code(extract_schedule(mm.classical(1))) == "c11 = a11 * b11\n"


def test_emit_code_styles_and_determinism():
    sched = extract_schedule(mm.laderman())
    flat = emit_code(sched, style="flat")
    assert flat == emit_code(extract_schedule(mm.laderman()), style="flat")
    annotated = emit_code(sched, style="annotated")
    assert "# term" in annotated
    assert "#" not in flat
    with pytest.raises(ValueError):
        emit_code(sched, style="fancy")


def test_recursive_multiply_counts(rng):
    a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
    res = mm.recursive_multiply(mm.strassen(), a, b, threshold=1)
    assert res.product == a @ b
    assert res.scalar_multiplications == 49

    a, b = rand_matrix(rng, 9), rand_matrix(rng, 9)
    res = mm.recursive_multiply(mm.laderman_variant(1), a, b, threshold=1)
    assert res.product == a @ b
    assert res.scalar_multiplications == 529

    one = Matrix([[Fraction(3, 7)]])
    res = mm.recursive_multiply(mm.strassen(), one, one)
    assert res.scalar_multiplications == 1


def test_recursive_multiply_matches_schoolbook_all_sizes(rng):
    for n in range(1, 8):
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        for base in (mm.strassen(), mm.laderman()):
            res = mm.recursive_multiply(base, a, b, threshold=2)
            assert res.product == a @ b


def test_recursive_multiply_validation(rng):
    with pytest.raises(ValueError):
        mm.recursive_multiply(mm.strassen(), rand_matrix(rng, 2),
                              rand_matrix(rng, 3))
    with pytest.raises(ValueError):
        mm.recursive_multiply(mm.strassen(), rand_matrix(rng, 2),
                              rand_matrix(rng, 2), threshold=0)


def test_recursive_multiply_refuses_non_multiplication_tensors():
    eye = Matrix.identity(3)
    with pytest.raises(ValueError, match="not a multiplication tensor"):
        mm.recursive_multiply(mm.lifted_winograd(), eye, eye)
    with pytest.raises(ValueError, match="not a multiplication tensor"):
        mm.recursive_multiply(mm.klein_orbit_sum_winograd(), eye, eye)


def test_evaluate_validation(rng):
    sched = extract_schedule(mm.strassen())
    with pytest.raises(ValueError):
        sched.evaluate(rand_matrix(rng, 3), rand_matrix(rng, 3))


def test_recursive_multiply_rational_depth_three(rng):
    a, b = rand_matrix(rng, 27), rand_matrix(rng, 27)
    res = mm.recursive_multiply(mm.laderman_variant(Fraction(3, 4)), a, b,
                                threshold=1)
    assert res.product == a @ b
    assert res.scalar_multiplications == 23 ** 3


@lru_cache(maxsize=None)
def _base(name, lam):
    return {"strassen": mm.strassen, "laderman": mm.laderman,
            "laderman_variant": lambda: mm.laderman_variant(lam),
            "winograd": lambda: mm.winograd(lam)}[name]()


_entries = st.one_of(
    st.integers(-99, 99).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 6)))


@st.composite
def _operand(draw, n):
    rows = draw(st.lists(st.one_of(st.lists(_entries, min_size=n, max_size=n),
                                   st.just([Fraction(0)] * n)),
                         min_size=n, max_size=n))
    return Matrix(rows)


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(1, 12),
       st.sampled_from(["strassen", "laderman", "laderman_variant",
                        "winograd"]),
       st.builds(Fraction, st.integers(1, 3), st.integers(1, 3)),
       st.booleans(), st.integers(1, 3))
def test_recursive_multiply_property(data, n, name, lam, negate, threshold):
    lam = -lam if negate else lam
    a, b = data.draw(_operand(n)), data.draw(_operand(n))
    res = mm.recursive_multiply(_base(name, lam), a, b, threshold=threshold)
    assert res.product == a @ b
    assert all(isinstance(v, Fraction) for row in res.product.row_list()
               for v in row)
