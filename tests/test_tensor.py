import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import Isotropy, Matrix, RankOneTerm, Tensor, tensor
from mmtensor.codegen import _compile
from mmtensor.isotropy import monomial_stabilizer_count
from mmtensor.matrix import projective_key

from conftest import DENSE_ISOTROPY, rand_matrix


def test_rank_one_term_basics():
    tm = mm.term([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert tm.dim == 2 and not tm.is_zero()
    assert mm.term([[0, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]).is_zero()
    with pytest.raises(ValueError):
        RankOneTerm(Matrix.identity(2), Matrix.identity(3), Matrix.identity(2))


def test_scaled_folds_into_a():
    tm = mm.term([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])
    s = tm.scaled(Fraction(3, 2))
    assert s.a == tm.a.scale(Fraction(3, 2)) and s.b == tm.b and s.c == tm.c


def test_canonical_scaling_equivalence(rng):
    for _ in range(20):
        tm = RankOneTerm(rand_matrix(rng, 2), rand_matrix(rng, 2),
                         rand_matrix(rng, 2))
        if tm.is_zero():
            continue
        alpha, beta = Fraction(3, 7), Fraction(-2, 5)
        other = RankOneTerm(tm.a.scale(alpha), tm.b.scale(beta),
                            tm.c.scale(1 / (alpha * beta)))
        assert tm.key() == other.key()


_ENTRY = st.sampled_from([0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
_FACTOR = st.lists(st.lists(_ENTRY, min_size=2, max_size=2),
                   min_size=2, max_size=2).map(Matrix)
_SCALAR = _ENTRY.filter(bool)


@st.composite
def _term_pairs(draw):
    """(u, v) of 2x2 terms: v is drawn afresh, or is u under the scaling
    (alpha a, beta b, c/(alpha beta)), or that with one factor scaled
    once more."""
    u = RankOneTerm(*(draw(_FACTOR) for _ in range(3)))
    how = draw(st.sampled_from(["fresh", "rescaled", "scaled-again"]))
    if how == "fresh":
        return u, RankOneTerm(*(draw(_FACTOR) for _ in range(3)))
    alpha, beta = draw(_SCALAR), draw(_SCALAR)
    factors = [u.a.scale(alpha), u.b.scale(beta),
               u.c.scale(Fraction(1) / (alpha * beta))]
    if how == "scaled-again":
        i = draw(st.integers(0, 2))
        factors[i] = factors[i].scale(draw(_SCALAR))
    return u, RankOneTerm(*factors)


@settings(max_examples=300, deadline=None)
@given(_term_pairs())
def test_term_key_is_complete(pair):
    """Two nonzero terms have equal keys iff they are the same rank-one
    tensor; a zero term has no key."""
    for tm in pair:
        if tm.is_zero():
            with pytest.raises(ValueError, match="zero term"):
                tm.key()
    u, v = pair
    if u.is_zero() or v.is_zero():
        return
    form_u, form_v = (mm.to_coefficient_form(Tensor(2, [tm])) for tm in pair)
    assert (u.key() == v.key()) == (form_u == form_v)
    assert hash(u.key()) is not None and sorted([u.key(), v.key()])


def test_zero_term_has_no_key():
    e, z = Matrix.identity(2), Matrix.zeros(2)
    for factors in ((z, e, e), (e, z, e), (e, e, z)):
        with pytest.raises(ValueError, match="zero term"):
            RankOneTerm(*factors).key()


def test_tensor_invariants():
    with pytest.raises(ValueError):
        Tensor(0)
    with pytest.raises(ValueError):
        Tensor(3, [mm.monomial_term(2, 1, 1, 1)])
    z = Tensor(2)
    assert mm.decomposition_length(z) == 0
    assert mm.to_coefficient_form(z) == {}
    with pytest.raises(ValueError, match="dimension mismatch"):
        mm.combine(z, 1, Tensor(3), 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mm.form_equal(z, Tensor(3))


def test_core_types_are_immutable():
    t, g, m = mm.strassen(), mm.winograd_isotropy(), Matrix.identity(2)
    for obj, name, value in [(t, "dim", 3), (t, "terms", ()),
                             (g, "g1", m), (m, "den", 2)]:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        assert getattr(obj, name) != value


def test_core_types_are_values():
    """Separately built equal tensors and isotropies are equal with equal
    hashes, so a value-keyed cache hits on the second copy."""
    fresh = mm.strassen.__wrapped__()  # past strassen's lru_cache
    assert fresh is not mm.strassen()
    assert fresh == mm.strassen()
    assert hash(fresh) == hash(mm.strassen())
    assert mm.strassen() != Tensor(2, mm.strassen().terms[1:])
    assert repr(mm.strassen()) == "Tensor(dim=2, terms=7)"
    g = mm.winograd_isotropy(Fraction(3, 4))
    assert g == mm.winograd_isotropy(Fraction(3, 4))
    assert hash(g) == hash(mm.winograd_isotropy(Fraction(3, 4)))
    assert g != mm.winograd_isotropy()
    assert repr(g) == "Isotropy(dim=2)"
    _compile.cache_clear()
    _compile(mm.strassen())
    _compile(fresh)
    assert _compile.cache_info().hits == 1


def test_isotropy_equality_ignores_cached_action():
    p, e = Matrix([[0, 1], [1, 0]]), Matrix.identity(2)
    g, h = Isotropy(p, p, e), Isotropy(p, p, e)
    assert g._perms is not None and g._pairs is None
    object.__setattr__(h, "_perms", None)
    object.__setattr__(h, "_pairs", ())
    assert g == h and hash(g) == hash(h)


def test_monomial_term():
    # a_ij b_jk c_ki pattern
    tm = mm.monomial_term(3, 1, 2, 3)
    assert tm.a == Matrix.unit(3, 1, 2)
    assert tm.b == Matrix.unit(3, 2, 3)
    assert tm.c == Matrix.unit(3, 3, 1)
    form = mm.to_coefficient_form(Tensor(3, [tm]))
    assert form == {((1, 2), (2, 3), (3, 1)): Fraction(1)}


def test_matmul_form_and_verification():
    assert mm.expansion(mm.classical(3)) == (1, {
        (3 * i + j) * 81 + (3 * j + k) * 9 + 3 * k + i: 1
        for i, j, k in product(range(3), repeat=3)})
    assert len(mm.to_coefficient_form(mm.classical(3))) == 27
    assert mm.is_matmul_tensor(mm.classical(2))
    assert not mm.is_matmul_tensor(Tensor(2, [mm.monomial_term(2, 1, 1, 1)]))


def test_brent_failures_lists_the_broken_equations():
    c = mm.classical(3)
    assert mm.brent_failures(c) == []
    short = Tensor(3, [tm for tm in c.terms
                       if tm != mm.monomial_term(3, 1, 2, 3)])
    assert mm.brent_failures(short) == [((1, 2), (2, 3), (3, 1))]
    extra = mm.term(Matrix.unit(3, 1, 2), Matrix.unit(3, 3, 3).scale(
        Fraction(1, 3)), Matrix.unit(3, 1, 1))
    plus = Tensor(3, [*c.terms, extra])
    assert mm.expansion(plus)[0] == 3
    assert mm.brent_failures(plus) == [((1, 2), (3, 3), (1, 1))]
    monomials = sorted(((i, j), (j, k), (k, i))
                       for i, j, k in product(range(1, 4), repeat=3))
    assert mm.brent_failures(mm.combine(c, 2, c, 0)) == monomials
    assert mm.brent_failures(Tensor(3)) == monomials


def test_coefficient_form_cancellation():
    tm = mm.monomial_term(2, 1, 1, 1)
    t = Tensor(2, [tm, tm.scaled(-1)])
    assert mm.to_coefficient_form(t) == {}
    s = mm.strassen()
    assert mm.to_coefficient_form(mm.combine(s, 1, s, -1)) == {}
    assert mm.expansion(mm.combine(s, 1, s, -1)) == (1, {})
    assert mm.decomposition_length(t) == 2  # terms kept, form cancels


def test_type_and_format():
    tt = mm.tensor_type(mm.strassen())
    assert tt == Counter({(2, 2, 2): 1, (1, 1, 1): 6})
    assert mm.format_type(Counter({(1, 1, 1): 13, (2, 2, 2): 4})) == \
        "(2,2,2)x4 (1,1,1)x13"
    # zero terms excluded
    t = Tensor(2, [mm.monomial_term(2, 1, 1, 1),
                   mm.term([[0, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]])])
    assert sum(mm.tensor_type(t).values()) == 1


def test_combine_is_linear_on_forms(rng):
    t1 = mm.strassen()
    t2 = Tensor(2, [RankOneTerm(rand_matrix(rng, 2), rand_matrix(rng, 2),
                                rand_matrix(rng, 2)) for _ in range(3)])
    s1, s2 = Fraction(2, 3), Fraction(-5)
    got = mm.to_coefficient_form(mm.combine(t1, s1, t2, s2))
    f1, f2 = mm.to_coefficient_form(t1), mm.to_coefficient_form(t2)
    assert got == {
        k: v for k in f1.keys() | f2.keys()
        if (v := s1 * f1.get(k, 0) + s2 * f2.get(k, 0))}


def test_combine_zero_scalar_drops_terms():
    t = mm.combine(mm.strassen(), 0, mm.classical(2), 1)
    assert mm.decomposition_length(t) == 8


def test_full_contraction_matches_form(rng):
    t = mm.strassen()
    a, b, c = (rand_matrix(rng, 2) for _ in range(3))
    form = mm.to_coefficient_form(t)
    expected = sum((v * a[i, j] * b[k, l] * c[m, n]
                    for ((i, j), (k, l), (m, n)), v in form.items()),
                   Fraction(0))
    assert mm.full_contraction(t, a, b, c) == expected
    with pytest.raises(ValueError):
        mm.full_contraction(t, rand_matrix(rng, 3), b, c)


# -- property tests ---------------------------------------------------------

small_fraction = st.fractions(min_value=-4, max_value=4,
                              max_denominator=4)


def _term_strategy(n):
    mat = st.lists(st.lists(small_fraction, min_size=n, max_size=n),
                   min_size=n, max_size=n).map(Matrix)
    return st.tuples(mat, mat, mat).map(lambda ms: RankOneTerm(*ms))


@settings(max_examples=30, deadline=None)
@given(st.lists(_term_strategy(2), max_size=5), st.randoms())
def test_form_ignores_term_order(terms, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert mm.form_equal(Tensor(2, terms), Tensor(2, shuffled))


@settings(max_examples=30, deadline=None)
@given(_term_strategy(2), small_fraction, small_fraction)
def test_term_scaling_invariance(tm, alpha, beta):
    if tm.is_zero() or alpha == 0 or beta == 0:
        return
    other = RankOneTerm(tm.a.scale(alpha), tm.b.scale(beta),
                        tm.c.scale(1 / (alpha * beta)))
    assert mm.form_equal(Tensor(2, [tm]), Tensor(2, [other]))


@settings(max_examples=20, deadline=None)
@given(st.lists(_term_strategy(2), max_size=4))
def test_type_excludes_zero_terms(terms):
    tt = mm.tensor_type(Tensor(2, terms))
    assert all(all(1 <= r <= 2 for r in triple) for triple in tt)


# -- the integer kernel against plain Fraction sums ------------------------

def reference_form(t):
    """The coefficient form summed one Fraction product at a time."""
    form = {}
    for tm in t.terms:
        for i, j, va in tm.a.entries():
            for k, l, vb in tm.b.entries():
                for m, n, vc in tm.c.entries():
                    key = ((i, j), (k, l), (m, n))
                    form[key] = form.get(key, 0) + va * vb * vc
    return {key: v for key, v in form.items() if v}


def _exact_form(t):
    form = mm.to_coefficient_form(t)
    assert form == reference_form(t)
    assert all(type(v) is Fraction and v for v in form.values())
    return form


wide_fraction = st.builds(Fraction, st.integers(-7, 7),
                          st.integers(1, 10 ** 6))


@st.composite
def _wide_term(draw, n):
    """A term of wide fractions; one in five has a zero factor."""
    entry = st.one_of(st.just(0), st.integers(-3, 3), wide_fraction)
    mat = st.lists(st.lists(entry, min_size=n, max_size=n),
                   min_size=n, max_size=n).map(Matrix)
    factors = [draw(mat) for _ in range(3)]
    if draw(st.integers(0, 4)) == 0:
        factors[draw(st.integers(0, 2))] = Matrix.zeros(n)
    return RankOneTerm(*factors)


@st.composite
def wide_tensors(draw):
    n = draw(st.integers(1, 3))
    return Tensor(n, draw(st.lists(_wide_term(n), max_size=6)))


@settings(max_examples=150, deadline=None)
@given(wide_tensors())
def test_coefficient_form_equals_fraction_reference(t):
    _exact_form(t)


@settings(max_examples=60, deadline=None)
@given(wide_tensors(), st.data())
def test_coefficient_form_drops_cancelled_entries(t, data):
    """Three copies of a term with scales x, y, -(x + y) of different
    denominators cancel to exactly zero and leave no entry behind."""
    form = _exact_form(t)
    tm = data.draw(_wide_term(t.dim).filter(lambda tm: not tm.is_zero()))
    x, y = data.draw(wide_fraction), data.draw(wide_fraction)
    cancel = [tm.scaled(x), tm.scaled(y), tm.scaled(-(x + y))]
    assert _exact_form(Tensor(t.dim, [*t.terms, *cancel])) == form


@settings(max_examples=60, deadline=None)
@given(wide_tensors(), st.data())
def test_expansion_is_in_lowest_terms(t, data):
    """Splitting a term into scales x, y, 1 - x - y of different
    denominators keeps the form, and moving one entry of it changes the
    form; form_equal and the Fraction reference agree on both."""
    nonzero = _wide_term(t.dim).filter(lambda tm: not tm.is_zero())
    tm = data.draw(nonzero)
    x = data.draw(wide_fraction.filter(lambda v: v.denominator > 1))
    y = data.draw(wide_fraction.filter(
        lambda v: v.denominator not in (1, x.denominator)))
    base = Tensor(t.dim, [*t.terms, tm])
    split = Tensor(t.dim, [*t.terms, tm.scaled(x), tm.scaled(y),
                           tm.scaled(1 - x - y)])
    factors = [tm.a, tm.b, tm.c]
    f = data.draw(st.integers(0, 2))
    rows = factors[f].row_list()
    i, j = (data.draw(st.integers(0, t.dim - 1)) for _ in range(2))
    rows[i][j] += data.draw(wide_fraction.filter(bool))
    factors[f] = Matrix(rows)
    moved = Tensor(t.dim, [*t.terms, RankOneTerm(*factors)])
    ref = reference_form(base)
    assert mm.form_equal(base, split) and ref == reference_form(split)
    assert not mm.form_equal(base, moved) and ref != reference_form(moved)


def test_coefficient_form_cancels_across_denominators():
    one = [[1]]
    t = Tensor(1, [mm.term([[Fraction(1, 3)]], one, one),
                   mm.term([[Fraction(1, 6)]], one, one),
                   mm.term(one, [[Fraction(-1, 2)]], one)])
    assert _exact_form(t) == {}
    kept = mm.term([[0, 0], [0, Fraction(2, 7)]], [[1, 0], [0, 0]],
                   [[0, Fraction(1, 5)], [0, 0]])
    lift = [[Fraction(1, 3), 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]
    t = Tensor(2, [mm.term(*lift), kept, mm.term(*lift).scaled(Fraction(-1))])
    assert _exact_form(t) == {((2, 2), (1, 1), (1, 2)): Fraction(2, 35)}


def _denominator(m):
    return lcm(*(v.denominator for _, _, v in m.entries()))


def test_dense_laderman_image_pinned():
    t = mm.act(DENSE_ISOTROPY, mm.laderman())
    entries = [v for tm in t.terms for m in (tm.a, tm.b, tm.c)
               for _, _, v in m.entries()]
    assert len(entries) == 573 and max(v.denominator for v in entries) == 8
    assert mm.is_matmul_tensor(t)
    assert monomial_stabilizer_count(t) == 110592
    # Near miss: one entry moved by 1/D, D the lcm over the terms of the
    # product of the three factors' denominators.
    big_d = lcm(*(_denominator(tm.a) * _denominator(tm.b) * _denominator(tm.c)
                  for tm in t.terms))
    assert big_d == 128
    first = t.terms[0]
    rows = first.a.row_list()
    rows[0][0] += Fraction(1, big_d)
    near = Tensor(3, [RankOneTerm(Matrix(rows), first.b, first.c),
                      *t.terms[1:]])
    assert not mm.is_matmul_tensor(near)
    assert _exact_form(near) != reference_form(mm.classical(3))


# -- packed against direct accumulation ---------------------------------------

def _both_sums(t):
    """(L, direct, packed): expansion's sums of t times L, one product at a
    time with the zero sums dropped, and Kronecker-packed."""
    big_d, cleared = tensor._cleared(t)
    direct = tensor._direct_sums(big_d, cleared)
    return (big_d, {key: v for key, v in direct.items() if v},
            tensor._packed_sums(big_d, cleared, t.dim ** 2))


@st.composite
def _packing_tensors(draw):
    """Tensors of dimension 1-4 with 1-5 terms, sparse (most entries 0)
    or dense (few), of small ints or also of p/q with p and q up to 2^80,
    so that the lanes span one to several 64-bit words."""
    n = draw(st.integers(1, 4))
    zeros = draw(st.sampled_from([1, 6]))  # in 10 entries
    value = st.integers(-3, 3)
    if draw(st.booleans()):
        value |= st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
                           st.integers(1, 2 ** 80))
    entry = st.integers(0, 9).flatmap(
        lambda z: st.just(0) if z < zeros else value)
    mat = st.lists(st.lists(entry, min_size=n, max_size=n),
                   min_size=n, max_size=n).map(Matrix)
    return Tensor(n, draw(st.lists(st.builds(RankOneTerm, mat, mat, mat),
                                   min_size=1, max_size=5)))


@settings(max_examples=100, deadline=None)
@given(_packing_tensors())
def test_packed_sums_equal_direct_sums(t):
    """Both accumulations give the same nonzero sums, and expansion, on
    whichever path it takes, gives them over L in lowest terms."""
    big_d, direct, packed = _both_sums(t)
    assert packed == direct
    d, sums = mm.expansion(t)
    assert gcd(d, *sums.values()) == 1
    assert ({key: Fraction(v, d) for key, v in sums.items()}
            == {key: Fraction(v, big_d) for key, v in direct.items()})


@pytest.mark.parametrize("values", [
    [2 ** 63 - 1], [-(2 ** 63 - 1)], [2 ** 63], [-2 ** 63],
    [2 ** 62, 2 ** 62 - 1], [2 ** 62, 2 ** 62], [-2 ** 62, -2 ** 62],
    [2 ** 63, -2 ** 63], [2 ** 127 - 1], [-2 ** 127]])
def test_packed_lanes_at_the_bound(values):
    """Sums at +-B for B just below and at 2^63 (one word a lane, then
    two) and at 2^127, in adjacent lanes of opposite signs."""
    signs = [[1, -1], [-1, 1]]
    for t in (Tensor(1, [mm.term([[v]], [[1]], [[1]]) for v in values]),
              Tensor(2, [mm.term([[v, 0], [0, 0]], [[1, 0], [0, 0]], signs)
                         for v in values])):
        _, direct, packed = _both_sums(t)
        assert packed == direct


def _lane_values(s, count, rng):
    """(lanes, values): values of count signed s-bit lanes each, lowest
    lane first, at least eight lanes in all; the lanes are both extremes,
    0 and -1, then random ints in range alternating with those four, and
    each value is the sum of lane_k 2^(s k)."""
    top = 1 << s - 1
    pool = [-top, top - 1, 0, -1]
    lanes = pool + [pool[i % 4] if i % 2 else rng.randrange(-top, top)
                    for i in range(count * (8 // count + 2) - 4)]
    values = [sum(v << s * k for k, v in enumerate(lanes[i:i + count]))
              for i in range(0, len(lanes), count)]
    return lanes, values


@pytest.mark.parametrize("count", [1, 3, 9, 81])
@pytest.mark.parametrize("s", [64, 128, 192, 256])
def test_signed_lanes_round_trips(s, count, rng):
    """signed_lanes reads back every lane packed into a list of values, a
    dict's values, or nothing, whatever the lane width."""
    lanes, values = _lane_values(s, count, rng)
    assert tensor.signed_lanes(values, count, s) == lanes
    by_key = dict(enumerate(values))
    assert tensor.signed_lanes(by_key.values(), count, s) == lanes
    assert tensor.signed_lanes([], count, s) == []
    assert tensor.signed_lanes({}.values(), count, s) == []


@pytest.mark.parametrize("bound, bits", [
    (0, 64), (2 ** 63 - 1, 64), (2 ** 63, 128), (2 ** 127 - 1, 128),
    (2 ** 127, 192)])
def test_lane_bits_is_the_least_word_multiple_above_the_bound(bound, bits):
    assert tensor.lane_bits(bound) == bits


@pytest.mark.parametrize("make, packs", [
    (mm.laderman, False),
    (lambda: mm.laderman_variant(Fraction(3, 4)), False),
    (lambda: mm.classical(6), False),
    (lambda: mm.act(DENSE_ISOTROPY, mm.laderman()), True)])
def test_expansion_path_by_density(make, packs):
    """Sparse tensors take the direct loop; a dense L U image of laderman
    is packed."""
    t = make()
    assert tensor._packs(tensor._cleared(t)[1], t.dim ** 2) == packs


def _reference_verdict(t):
    return reference_form(t) == reference_form(mm.classical(t.dim))


@settings(max_examples=150, deadline=None)
@given(wide_tensors())
def test_brent_check_agrees_with_coefficient_form(t):
    assert mm.is_matmul_tensor(t) == _reference_verdict(t)


_MATMUL_TENSORS = (mm.classical(1), mm.classical(2), mm.strassen(),
                   mm.winograd(Fraction(5, 7)), mm.laderman(),
                   mm.laderman_variant(Fraction(3, 4)))


@st.composite
def _near_misses(draw):
    """(tensor, verdict): a multiplication tensor with one entry perturbed
    or one term dropped (False), or one term split into three copies whose
    scales of different denominators sum to 1 (True)."""
    t = draw(st.sampled_from(_MATMUL_TENSORS))
    terms = list(t.terms)
    pos = draw(st.integers(0, len(terms) - 1))
    tm = terms.pop(pos)
    kind = draw(st.sampled_from(["perturb", "drop", "split"]))
    if kind == "perturb":
        factors = [tm.a, tm.b, tm.c]
        f = draw(st.integers(0, 2))
        rows = factors[f].row_list()
        i, j = draw(st.integers(0, t.dim - 1)), draw(st.integers(0, t.dim - 1))
        rows[i][j] += draw(wide_fraction.filter(bool))
        factors[f] = Matrix(rows)
        terms.insert(pos, RankOneTerm(*factors))
    elif kind == "split":
        x, y = draw(wide_fraction), draw(wide_fraction)
        terms[pos:pos] = [tm.scaled(x), tm.scaled(y), tm.scaled(1 - x - y)]
    return Tensor(t.dim, terms), kind == "split"


@settings(max_examples=150, deadline=None)
@given(_near_misses())
def test_brent_check_on_near_misses(case):
    t, verdict = case
    assert mm.is_matmul_tensor(t) == _reference_verdict(t) == verdict


@st.composite
def _near_matmul(draw):
    """classical(n) or nothing, plus terms with entries in {-1, 0, 1, 1/2}
    and sometimes their negations, so some draws are multiplication tensors."""
    n = draw(st.integers(1, 3))
    entry = st.sampled_from([-1, 0, 1, Fraction(1, 2)])
    mat = st.lists(st.lists(entry, min_size=n, max_size=n),
                   min_size=n, max_size=n).map(Matrix)
    extra = draw(st.lists(st.tuples(mat, mat, mat).map(
        lambda ms: RankOneTerm(*ms)), max_size=4))
    terms = list(mm.classical(n).terms) if draw(st.booleans()) else []
    terms += extra
    if draw(st.booleans()):
        terms += [tm.scaled(-1) for tm in extra]
    return Tensor(n, terms)


@settings(max_examples=100, deadline=None)
@given(_near_matmul())
def test_brent_failures_are_where_the_form_differs(t):
    form = mm.to_coefficient_form(t)
    ref = mm.to_coefficient_form(mm.classical(t.dim))
    differ = {k for k in form.keys() | ref.keys()
              if form.get(k, 0) != ref.get(k, 0)}
    failures = mm.brent_failures(t)
    assert failures == sorted(differ)
    assert mm.is_matmul_tensor(t) == (failures == [])


def _flat(m, k=1):
    """m as a flat factor (den, row-major entries), both times k > 0."""
    return m.den * k, tuple(v * k for v in m.num)


@pytest.mark.parametrize("s", [Fraction(-3, 7), Fraction(2), Fraction(-1, 6)])
@pytest.mark.parametrize("cancel", [False, True])
def test_merge_pair_folds_flat_factors_to_lowest_terms(s, cancel):
    """u = (s a, b / 2, c) folds into v = (a, b, d) along (a,b) to
    (s / 2) c + d in lowest terms with den > 0, from factors held out of
    lowest terms; a fold that cancels gives (1, zeros)."""
    a = Matrix([[0, -2], [1, 3]])
    b = Matrix([[Fraction(1, 2), 1], [0, -1]])
    c = Matrix([[1, Fraction(-2, 3)], [0, 5]])
    d = c.scale(-s / 2) if cancel else Matrix([[Fraction(3, 4), 0], [-1, 2]])
    u = (_flat(a.scale(s), 3), _flat(b.scale(Fraction(1, 2)), 5), _flat(c, 2))
    v = (_flat(a), _flat(b, 7), _flat(d))
    # classed triples: a and b share classes 0 and 1, c and d differ
    u, v = tuple(zip(u, (0, 1, 2))), tuple(zip(v, (0, 1, 3)))
    want = c.scale(s / 2) + d
    assert tensor._merge_pair(u, v) == (2, _flat(want))
    assert want.is_zero() == cancel


@st.composite
def _flat_factor_pair(draw):
    """Two flat factors of one size and their matrices: the second is the
    first times (den, entries) multipliers (k, k), (1, -1) or (k, -k),
    out of lowest terms, or a matrix of its own."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)

    def matrix():
        num = draw(st.lists(entry, min_size=n * n, max_size=n * n))
        return Matrix.from_ints(draw(st.integers(1, 3)), n, num)

    ma = matrix()
    if draw(st.booleans()):
        mb, k = ma, draw(st.integers(1, 4))
        kd, ke = draw(st.sampled_from([(k, k), (1, -1), (k, -k)]))
    else:
        mb, kd, ke = matrix(), 1, 1
    return ((ma, _flat(ma)),
            (mb, (mb.den * kd, tuple(v * ke for v in mb.num))))


@settings(max_examples=200, deadline=None)
@given(_flat_factor_pair())
def test_classifier_classes_are_projective_keys(pair):
    """classify gives two flat factors one class number iff projective_key
    of their matrices agree, whether or not a factor is in lowest terms or
    negated, and returns each factor with its class."""
    (ma, fa), (mb, fb) = pair
    classify = tensor.classifier()
    (ga, ca), (gb, cb) = classify(fa), classify(fb)
    assert (ga, gb) == (fa, fb)
    assert (ca == cb) == (projective_key(ma) == projective_key(mb))
    assert classify(fb)[1] == cb
