from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import Matrix, tensor
from mmtensor.isotropy import signed_permutations

from conftest import DENSE_ISOTROPY, planted_tensor, rand_matrix
from oracles import merge_reference, perm_matrix


def test_matrix_zero():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    z = mm.matrix_zero(m, 2, 3)
    assert z.row_list() == [[1, 2, 0], [0, 0, 0], [7, 8, 0]]
    with pytest.raises(IndexError):
        mm.matrix_zero(m, 4, 1)


def test_matrix_project_and_lift_roundtrip():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    p = mm.matrix_project(m, 2, 3)
    assert p.row_list() == [[1, 2], [7, 8]]
    # lift inserts zero row/column; projecting back recovers the input
    small = Matrix([[1, 2], [3, 4]])
    assert mm.matrix_lift(small, 2, 1).row_list() == \
        [[0, 1, 2], [0, 0, 0], [0, 3, 4]]
    with pytest.raises(IndexError):
        mm.matrix_lift(small, 1, 4)
    for i in range(1, 4):
        for j in range(1, 4):
            assert mm.matrix_project(mm.matrix_lift(small, i, j), i, j) == small
    with pytest.raises(ValueError):
        mm.matrix_project(Matrix([[1]]), 1, 1)


def test_project_of_zeroed_equals_project():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mm.matrix_project(mm.matrix_zero(m, 1, 2), 1, 2) == \
        mm.matrix_project(m, 1, 2)


def test_tensor_zero_keeps_alignment():
    t = mm.classical(2)
    z = mm.tensor_zero(t, (1, 1, 1))
    assert len(z.terms) == len(t.terms)
    assert mm.decomposition_length(z) < mm.decomposition_length(t)


def test_tensor_project_classical():
    # projecting schoolbook n x n gives schoolbook (n-1) x (n-1)
    for idx in product(range(1, 4), repeat=3):
        p = mm.tensor_project(mm.classical(3), idx)
        assert p.dim == 2
        assert mm.is_matmul_tensor(p)
    with pytest.raises(ValueError):
        mm.tensor_project(mm.classical(1), (1, 1, 1))


def test_tensor_lift_project_roundtrip():
    w = mm.strassen()
    for idx in product(range(1, 4), repeat=3):
        lifted = mm.tensor_lift(w, idx)
        assert lifted.dim == 3
        assert mm.tensor_project(lifted, idx) == w


def test_zeroing_family_sum_averaging():
    for t in (mm.classical(2), mm.classical(3), mm.strassen()):
        n = t.dim
        s = mm.zeroing_family_sum(t)
        assert mm.form_equal(s, mm.combine(t, (n - 1) ** 3, t, 0))


def test_zeroing_family_sum_warns_on_unverified():
    bad = mm.Tensor(2, [mm.monomial_term(2, 1, 1, 1)])
    with pytest.warns(UserWarning):
        mm.zeroing_family_sum(bad)


def test_contraction_compatibility(rng):
    # zeroing the tensor, zeroing the arguments, and projecting both all
    # contract to the same value
    t = mm.classical(3)
    a, b, c = (rand_matrix(rng, 3) for _ in range(3))
    for i, j, k in product(range(1, 4), repeat=3):
        lhs = mm.full_contraction(t, mm.matrix_zero(a, i, j),
                                  mm.matrix_zero(b, j, k),
                                  mm.matrix_zero(c, k, i))
        mid = mm.full_contraction(mm.tensor_zero(t, (i, j, k)), a, b, c)
        rhs = mm.full_contraction(mm.tensor_project(t, (i, j, k)),
                                  mm.matrix_project(a, i, j),
                                  mm.matrix_project(b, j, k),
                                  mm.matrix_project(c, k, i))
        assert lhs == mid == rhs


_CENSUS_TENSORS = {
    "laderman": mm.laderman,
    "variant-3/4": lambda: mm.laderman_variant(Fraction(3, 4)),
    "dense": lambda: mm.act(DENSE_ISOTROPY, mm.laderman()),
    # One term short: the projections that keep that term fail.
    "laderman-minus-one": lambda: mm.Tensor(3, mm.laderman().terms[1:]),
    # 3x3 and 1x1 projected factors.
    "classical-4": lambda: mm.classical(4),
    "strassen": mm.strassen,
}


@pytest.mark.parametrize("name", _CENSUS_TENSORS)
def test_projection_census_matches_reference_loop(name):
    """The census projects each factor once; its lengths must equal those
    of merging each tensor_project, with the verdict of is_matmul_tensor
    and of the Fraction table."""
    t = _CENSUS_TENSORS[name]()
    n = t.dim
    census = list(mm.projection_census(t))
    assert [idx for idx, _, _ in census] == list(product(range(1, n + 1),
                                                         repeat=3))
    target = mm.to_coefficient_form(mm.classical(n - 1))
    for idx, length, ok in census:
        ref = mm.merge_shared_factors(mm.tensor_project(t, idx))
        assert ref.dim == n - 1
        assert length == len(ref.terms), idx
        assert ok == mm.is_matmul_tensor(ref) == (
            mm.to_coefficient_form(ref) == target)
    verdicts = [ok for _, _, ok in census]
    assert all(verdicts) == (name != "laderman-minus-one")


def test_projection_census_needs_dimension_two():
    with pytest.raises(ValueError, match="census needs dimension >= 2"):
        list(mm.projection_census(mm.classical(1)))


@settings(max_examples=60, deadline=None)
@given(planted_tensor())
def test_census_equals_reference_loop_on_planted_merges(t):
    """Every census line equals (idx, length, verdict) of the reference
    merge of each tensor_project, on random tensors with planted merges."""
    ref = []
    for idx in product(range(1, t.dim + 1), repeat=3):
        p = merge_reference(mm.tensor_project(t, idx))
        ref.append((idx, len(p.terms), mm.is_matmul_tensor(p)))
    assert list(mm.projection_census(t)) == ref


def _logged(fn, log):
    """fn, appending each call's first argument (self for a method) to log."""
    return lambda x, *args: log.append(x) or fn(x, *args)


def _identical(xs, ys):
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


@pytest.mark.parametrize("name", [3, 4, "laderman", "dense"])
def test_census_builds_no_term_without_shared_pair_key(name, monkeypatch):
    """A census folds its merges on (den, cut entries) and builds no
    RankOneTerm and no Matrix: not for classical(n), whose projections
    hold no shared pair key, nor for laderman and its dense image, whose
    projections merge.  Each distinct nonzero (den, cut entries), and each
    distinct nonzero fold, is keyed by flat_projective_key once, and
    RankOneTerm.is_zero runs on t's own terms only."""
    t = mm.classical(name) if name in (3, 4) else _CENSUS_TENSORS[name]()
    n = t.dim
    folds, built, matrices, keyed, tested = [], [], [], [], []
    merge_pair, key = tensor._merge_pair, tensor.flat_projective_key
    monkeypatch.setattr(tensor, "_merge_pair", lambda u, v: folds.append(
        merge_pair(u, v)) or folds[-1])
    monkeypatch.setattr(mm.RankOneTerm, "__post_init__",
                        _logged(mm.RankOneTerm.__post_init__, built))
    monkeypatch.setattr(Matrix, "from_ints",
                        staticmethod(_logged(Matrix.from_ints, matrices)))
    monkeypatch.setattr(tensor, "flat_projective_key",
                        lambda *args: keyed.append(args[2]) or key(*args))
    monkeypatch.setattr(mm.RankOneTerm, "is_zero",
                        _logged(mm.RankOneTerm.is_zero, tested))
    lengths = [length for _, length, _ in mm.projection_census(t)]
    monkeypatch.undo()

    assert built == matrices == []
    if name in (3, 4):
        assert folds == [] and lengths == [(n - 1) ** 3] * n ** 3
    else:
        assert folds
    cells = list(product(range(1, n + 1), repeat=2))
    cuts = {(m.den, tuple(v for k, v in enumerate(m.num)
                          if k // n != i - 1 and k % n != j - 1))
            for tm in t.terms for m in (tm.a, tm.b, tm.c) for i, j in cells
            if not mm.matrix_project(m, i, j).is_zero()}
    factors = cuts | {w for _, w in folds if any(w[1])}
    # keyed sees entries only: each distinct (den, entries) adds them once
    assert Counter(keyed) == Counter(entries for _, entries in factors)
    assert {entries for _, entries in cuts} <= set(keyed)
    assert _identical(tested, t.terms)


# -- census verdicts read off the parent's expansion ----------------------------

def _census_verdicts(t):
    """Each census length checked against len(ref.terms) and each verdict
    against is_matmul_tensor(ref), ref the merge of tensor_project, and
    against the Fraction table of tensor_project; returns the verdicts in
    census order."""
    target = mm.to_coefficient_form(mm.classical(t.dim - 1))
    verdicts = []
    for idx, length, ok in mm.projection_census(t):
        p = mm.tensor_project(t, idx)
        ref = merge_reference(p)
        assert length == len(ref.terms), idx
        assert ok == mm.is_matmul_tensor(ref) == (
            mm.to_coefficient_form(p) == target), idx
        verdicts.append(ok)
    return verdicts


_IDXS = list(product(range(1, 4), repeat=3))
_SOURCES = {"laderman": mm.laderman,
            "variant-3/4": lambda: mm.laderman_variant(Fraction(3, 4))}
_OFF = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(2)])
_DIAG = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                         Fraction(-1, 2)])


@st.composite
def _dense_matrix(draw):
    """L @ U, L unit lower and U upper with a nonzero diagonal: invertible."""
    low = [[Fraction(r == c) if r <= c else draw(_OFF) for c in range(3)]
           for r in range(3)]
    up = [[draw(_DIAG) if r == c else draw(_OFF) if r < c else Fraction(0)
           for c in range(3)] for r in range(3)]
    return Matrix(low) @ Matrix(up)


_SIGNED = st.sampled_from(signed_permutations(3)).map(perm_matrix)


def _change_entry(t, data):
    """t with one entry of one factor of one term moved off its value."""
    terms = list(t.terms)
    n = data.draw(st.integers(0, len(terms) - 1))
    f = data.draw(st.integers(0, 2))
    r, c = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    factors = [m.row_list() for m in (terms[n].a, terms[n].b, terms[n].c)]
    factors[f][r][c] += data.draw(st.sampled_from([1, -1, Fraction(1, 2)]))
    terms[n] = mm.RankOneTerm(*map(Matrix, factors))
    return mm.Tensor(3, terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_census_verdicts_equal_projection_checks(data):
    """Verdicts from the parent's expansion equal the checks of each
    projection, on isotropy images of Laderman and its variant, as they
    are, one term short, with one entry changed, and doubled."""
    source = _SOURCES[data.draw(st.sampled_from(sorted(_SOURCES)))]()
    make = data.draw(st.sampled_from([_SIGNED, _dense_matrix()]))
    t = mm.act(mm.Isotropy(*(data.draw(make) for _ in range(3))), source)
    change = data.draw(st.sampled_from(["none", "drop", "entry", "double"]))
    if change == "drop":
        n = data.draw(st.integers(0, len(t.terms) - 1))
        t = mm.Tensor(3, t.terms[:n] + t.terms[n + 1:])
    elif change == "entry":
        t = _change_entry(t, data)
    elif change == "double":
        t = mm.Tensor(3, [tm.scaled(2) for tm in t.terms])
    verdicts = _census_verdicts(t)
    # At n = 3 every key survives some projection: all verify iff t does.
    assert all(verdicts) == (change == "none")
    if change == "double":
        assert not any(verdicts)


def test_census_verdicts_with_denominator():
    """classical(3) plus the term a12 b33 c11 / 3: D = 3, and only the two
    projections that keep all of its lines fail; i = 1 kills it."""
    extra = mm.RankOneTerm(Matrix.unit(3, 1, 2).scale(Fraction(1, 3)),
                           Matrix.unit(3, 3, 3), Matrix.unit(3, 1, 1))
    t = mm.Tensor(3, mm.classical(3).terms + (extra,))
    assert mm.expansion(t)[0] == 3
    failed = [idx for idx, ok in zip(_IDXS, _census_verdicts(t)) if not ok]
    assert failed == [(2, 1, 2), (3, 1, 2)]


def test_non_multiplication_censuses():
    """Two pinned censuses of tensors that are not multiplication tensors."""
    zeroed = _census_verdicts(mm.tensor_zero(mm.classical(3), (1, 1, 1)))
    assert [idx for idx, ok in zip(_IDXS, zeroed) if ok] == [(1, 1, 1)]
    assert sum(_census_verdicts(mm.Tensor(3, mm.laderman().terms[1:]))) == 19
