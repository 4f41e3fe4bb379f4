import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import Matrix, Tensor
from mmtensor.isotropy import signed_permutations
from mmtensor.tensor import monomial_key

from conftest import (DENSE_ISOTROPY, canonical_terms, planted_tensor,
                      three_cycle_group)
from oracles import is_form_stabilized, merge_reference, perm_matrix


LADERMAN_TYPE = Counter({(2, 2, 2): 4, (1, 3, 1): 2, (3, 1, 1): 2,
                         (1, 1, 3): 2, (1, 1, 1): 13})


def test_classical():
    for n in range(1, 5):
        t = mm.classical(n)
        assert mm.decomposition_length(t) == n ** 3
        assert mm.is_matmul_tensor(t)
    with pytest.raises(ValueError):
        mm.classical(0)


def test_strassen():
    t = mm.strassen()
    assert mm.decomposition_length(t) == 7
    assert mm.is_matmul_tensor(t)


def test_winograd_isotropy_and_variant():
    for lam in (1, 2, Fraction(5, 7), -3):
        w = mm.winograd(lam)
        assert mm.decomposition_length(w) == 7
        assert mm.is_matmul_tensor(w)
        assert mm.tensor_type(w) == mm.tensor_type(mm.strassen())
    with pytest.raises(ValueError):
        mm.winograd_isotropy(0)


def test_lifted_winograd():
    lw = mm.lifted_winograd(1)
    assert lw.dim == 3
    assert mm.tensor_project(lw, (1, 1, 1)) == mm.winograd(1)
    # a lifted 2x2 algorithm is not a 3x3 one
    assert not mm.is_matmul_tensor(lw)


def test_laderman():
    t = mm.laderman()
    assert t.dim == 3
    assert mm.decomposition_length(t) == 23
    assert mm.is_matmul_tensor(t)
    assert mm.tensor_type(t) == LADERMAN_TYPE


def test_laderman_projection_census():
    optimal = {(2, 1, 3), (2, 3, 2), (3, 1, 2), (3, 3, 3)}
    lad = mm.laderman()
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                p = mm.merge_shared_factors(mm.tensor_project(lad, (i, j, k)))
                assert mm.is_matmul_tensor(p)
                want = 7 if (i, j, k) in optimal else 8
                assert mm.decomposition_length(p) == want, (i, j, k)


def test_merge_shared_factors():
    # two copies of a term collapse to one with doubled third factor
    tm = mm.monomial_term(2, 1, 1, 1)
    t = Tensor(2, [tm, tm])
    merged = mm.merge_shared_factors(t)
    assert mm.decomposition_length(merged) == 1
    assert mm.form_equal(merged, t)
    # exact cancellation disappears entirely
    gone = mm.merge_shared_factors(Tensor(2, [tm, tm.scaled(-1)]))
    assert mm.decomposition_length(gone) == 0
    # merging never changes the trilinear form
    raw = mm.orbit_sum(mm.klein_group(), mm.lifted_winograd(2))
    assert mm.form_equal(mm.merge_shared_factors(raw), raw)


def test_merge_all_three_positions():
    a1, a2 = mm.Matrix.unit(2, 1, 1), mm.Matrix.unit(2, 2, 2)
    b, c = mm.Matrix.unit(2, 1, 2), mm.Matrix.unit(2, 2, 1)
    # shared b and c, different a: a factors combine
    t = Tensor(2, [mm.term(a1, b, c), mm.term(a2, b.scale(2), c.scale(3))])
    merged = mm.merge_shared_factors(t)
    assert mm.decomposition_length(merged) == 1
    assert mm.form_equal(merged, t)


def _ratio(m1, m2):
    """alpha with m1 == alpha * m2, both nonzero, else None."""
    pairs = [(x, y) for r1, r2 in zip(m1.row_list(), m2.row_list())
             for x, y in zip(r1, r2) if x or y]
    if not pairs or any(x == 0 or y == 0 for x, y in pairs):
        return None
    alpha = pairs[0][0] / pairs[0][1]
    return alpha if all(x == alpha * y for x, y in pairs) else None


def _restart_scan_merge(t):
    """Reference merge: after every merge, scan all pairs i < j again from
    the start; the first pair sharing (a,b), else (a,c), else (b,c) up to
    scale is folded into position i."""
    def merge_pair(u, v):
        alpha, beta, gamma = (_ratio(x, y) for x, y in
                              ((u.a, v.a), (u.b, v.b), (u.c, v.c)))
        if alpha is not None and beta is not None:
            return mm.RankOneTerm(v.a, v.b, u.c.scale(alpha * beta) + v.c)
        if alpha is not None and gamma is not None:
            return mm.RankOneTerm(v.a, u.b.scale(alpha * gamma) + v.b, v.c)
        if beta is not None and gamma is not None:
            return mm.RankOneTerm(u.a.scale(beta * gamma) + v.a, v.b, v.c)
        return None

    terms = list(t.nonzero_terms())
    while True:
        hit = next(((i, j, new) for i in range(len(terms))
                    for j in range(i + 1, len(terms))
                    if (new := merge_pair(terms[i], terms[j])) is not None),
                   None)
        if hit is None:
            return Tensor(t.dim, terms)
        i, j, new = hit
        terms[i] = new
        del terms[j]
        if new.is_zero():
            del terms[i]


@st.composite
def _shared_factor_tensors(draw):
    """Terms over a small pool of factors with random scales, so that many
    pairs share factors; negated copies cancel exactly, and a zero pool
    entry makes zero terms."""
    n = draw(st.sampled_from([2, 3]))
    row = st.lists(st.sampled_from([0, 1, -1, 2]), min_size=n, max_size=n)
    matrix = st.lists(row, min_size=n, max_size=n).map(Matrix)
    pool = draw(st.lists(matrix.filter(lambda m: not m.is_zero()),
                         min_size=2, max_size=4))
    if draw(st.booleans()):
        pool.append(Matrix.zeros(n))
    scale = st.sampled_from([1, -1, 2, Fraction(-1, 2), Fraction(1, 3)])
    factor = st.builds(Matrix.scale, st.sampled_from(pool), scale)
    terms = draw(st.lists(st.builds(mm.RankOneTerm, factor, factor, factor),
                          min_size=1, max_size=12))
    for tm in draw(st.lists(st.sampled_from(terms), max_size=3)):
        terms.insert(draw(st.integers(0, len(terms))), tm.scaled(-1))
    return Tensor(n, terms)


@settings(max_examples=150, deadline=None)
@given(_shared_factor_tensors())
def test_merge_equals_restart_scan(t):
    assert mm.merge_shared_factors(t).terms == _restart_scan_merge(t).terms


def test_merge_equals_restart_scan_on_constructions():
    raw = [mm.orbit_sum(mm.klein_group(), mm.lifted_winograd(Fraction(3, 4))),
           mm.tensor_project(mm.laderman(), (2, 1, 3))]
    for t in raw:
        assert mm.merge_shared_factors(t).terms == _restart_scan_merge(t).terms


@settings(max_examples=100, deadline=None)
@given(planted_tensor())
def test_merge_equals_reference_on_planted_merges(t):
    """The flat-int merge gives the reference merge on Matrix factors,
    term for term and in order."""
    assert mm.merge_shared_factors(t).terms == merge_reference(t).terms


def _variant_sum(lam):
    """laderman_variant(lam) before its merge."""
    group = mm.klein_group()
    base = mm.orbit_sum(group, Tensor(3, [mm.monomial_term(3, 1, 1, 1)]))
    bulk = mm.orbit_sum(group, mm.lifted_winograd(lam))
    corr = mm.correction_term(mm.monomial_partition(group)).tensor
    return mm.combine(mm.combine(base, 1, bulk, 1), 1, corr, -1)


def _results_logged(fn, log):
    """fn, appending each call's result to log."""
    return lambda *args: log.append(fn(*args)) or log[-1]


@pytest.mark.parametrize("name", ["variant-3/4", "classical-3"])
def test_merge_builds_only_what_it_returns(name, monkeypatch):
    """merge_shared_factors returns the input term of each slot that no
    merge rebuilt, the same object, where the reference merge keeps it
    too, and builds Matrix and RankOneTerm only for the rebuilt slots."""
    if name == "classical-3":
        t = mm.classical(3)
    else:
        t = _variant_sum(Fraction(3, 4))
    ref = merge_reference(t)
    built, matrices = [], []
    post_init = mm.RankOneTerm.__post_init__
    monkeypatch.setattr(mm.RankOneTerm, "__post_init__",
                        lambda tm: built.append(tm) or post_init(tm))
    monkeypatch.setattr(Matrix, "from_ints", staticmethod(
        _results_logged(Matrix.from_ints, matrices)))
    merged = mm.merge_shared_factors(t)
    monkeypatch.undo()

    assert merged.terms == ref.terms
    is_input = lambda x: any(x is tm for tm in t.terms)
    for out, want in zip(merged.terms, ref.terms):
        assert is_input(out) == is_input(want)
        assert out is want or not is_input(out)
    rebuilt = [tm for tm in merged.terms if not is_input(tm)]
    factors = {id(f) for tm in rebuilt for f in (tm.a, tm.b, tm.c)}
    assert len(built) == len(rebuilt)
    assert all(any(x is tm for tm in rebuilt) for x in built)
    assert {id(m) for m in matrices} <= factors
    if name == "classical-3":
        assert merged.terms == t.terms and built == matrices == []
    else:
        assert merged.terms == mm.laderman_variant(Fraction(3, 4)).terms
        assert rebuilt and matrices


_E11, _E12, _E21, _E22 = (Matrix.unit(2, i, j)
                          for i, j in product((1, 2), repeat=2))
_I, _J, _K = _E11 + _E22, Matrix([[1, 1], [1, 1]]), Matrix([[1, -1], [0, 0]])


def test_merge_takes_least_pair_not_first_met():
    """Slots 3 and 5 share (a,c), and a scan in slot order meets them
    before slots 1 and 6, which share (b,c).  The least pair (1,6) merges
    first; merging (3,5) first would give slot 3 slot 6's (a,b) and fold
    6 into 3 instead."""
    e, h, f = _E12 + _E21, _E11 + _E12, _E11 + _E21
    t = Tensor(2, [mm.term(_I, _I, _I), mm.term(_E22, e, f),
                   mm.term(_J, _J, _J), mm.term(_E11, _E12, h),
                   mm.term(_K, _K, _K), mm.term(_E11, _E21, h),
                   mm.term(_E11, e, f)])
    merged = mm.merge_shared_factors(t)
    assert merged.terms == _restart_scan_merge(t).terms
    assert merged.terms[1] == mm.term(_I, e, f)
    assert merged.terms[3] == mm.term(_E11, e, h)


def test_merge_rebuilt_term_meets_earlier_slot():
    """Slots 1 and 2 merge on (a,b) into a term whose (a,c) is slot 0's,
    so the rebuilt slot 1 then merges into slot 0, an earlier one."""
    h = _E11 + _E12
    t = Tensor(2, [mm.term(_E21, _E11, h), mm.term(_E21, _E22, _E11),
                   mm.term(_E21, _E22, _E12)])
    merged = mm.merge_shared_factors(t)
    assert merged.terms == _restart_scan_merge(t).terms
    assert merged.terms == (mm.term(_E21, _I, h),)


def _normal(m):
    """The merge key before integer keys: m over its first nonzero entry,
    with that entry."""
    lead = next(v for _, _, v in m.entries())
    return lead, m.scale(1 / lead)


def _normal_key_merge(t):
    """Reference merge keyed by normalized Matrix factors: fold the first
    pair i < j whose normalized factors agree on (a,b), else (a,c), else
    (b,c) into position i, and scan again."""
    terms = list(t.nonzero_terms())
    while True:
        normal = [[_normal(m) for m in (tm.a, tm.b, tm.c)] for tm in terms]
        hit = next(((i, j, x, y) for i in range(len(terms))
                    for j in range(i + 1, len(terms))
                    for x, y in ((0, 1), (0, 2), (1, 2))
                    if normal[i][x][1] == normal[j][x][1]
                    and normal[i][y][1] == normal[j][y][1]), None)
        if hit is None:
            return Tensor(t.dim, terms)
        i, j, x, y = hit
        (u, nu), (v, nv) = (terms[i], normal[i]), (terms[j], normal[j])
        z = 3 - x - y
        scale = nu[x][0] / nv[x][0] * (nu[y][0] / nv[y][0])
        factors = [v.a, v.b, v.c]
        factors[z] = (u.a, u.b, u.c)[z].scale(scale) + factors[z]
        terms[i] = mm.RankOneTerm(*factors)
        del terms[j]
        if terms[i].is_zero():
            del terms[i]


@pytest.mark.parametrize("dense", [False, True], ids=["laderman", "dense"])
def test_merge_equals_normal_key_merge_on_projections(dense):
    lad = mm.laderman()
    t = mm.act(DENSE_ISOTROPY, lad) if dense else lad
    for idx in product((1, 2, 3), repeat=3):
        p = mm.tensor_project(t, idx)
        assert mm.merge_shared_factors(p).terms == _normal_key_merge(p).terms


def test_klein_orbit_sum_winograd():
    for lam in (1, 2):
        s = mm.klein_orbit_sum_winograd(lam)
        assert mm.decomposition_length(s) == 19
        assert not mm.is_matmul_tensor(s)


def test_correction_term_klein():
    res = mm.correction_term(mm.monomial_partition(mm.klein_group()))
    assert res.corner_coefficient == Fraction(3, 4)
    assert res.corner_total_weight == 3
    # the identity it was solved from holds in full
    lhs = mm.combine(
        mm.orbit_sum(mm.klein_group(),
                     Tensor(3, [mm.monomial_term(3, 1, 1, 1)])), 1,
        mm.orbit_sum(mm.klein_group(),
                     mm.tensor_zero(mm.classical(3), (1, 1, 1))), 1)
    rhs = mm.combine(mm.classical(3), 1, res.tensor, 1)
    assert mm.form_equal(lhs, rhs)


def test_correction_term_cyclic_partition():
    res = mm.correction_term(mm.cyclic_partition())
    assert res.corner_coefficient == Fraction(3, 4)
    assert res.corner_total_weight == 3


# Trivial group at n = 2, its partition read off the group and written out
# by hand: base + bulk = m111 + m222, so R is minus the six off-diagonal
# monomials and the corner (2,2,2) carries no weight.
def _trivial_n2_sources():
    group = mm.IsotropyGroup([mm.Isotropy.identity(2)])
    partition = mm.MonomialOrbitPartition(
        1, tuple((frozenset([m]), 1) for m in product((1, 2), repeat=3)))
    return mm.monomial_partition(group), partition


def test_correction_term_dimension_two():
    results = [mm.correction_term(src) for src in _trivial_n2_sources()]
    assert mm.form_equal(results[0].tensor, results[1].tensor)
    for res in results:
        assert res.tensor.dim == 2
        assert mm.decomposition_length(res.tensor) == 6
        assert res.corner_coefficient == res.corner_total_weight == 0
        base = Tensor(2, [mm.monomial_term(2, 1, 1, 1)])
        bulk = mm.tensor_zero(mm.classical(2), (1, 1, 1))
        total = mm.combine(mm.combine(base, 1, bulk, 1), 1, res.tensor, -1)
        assert mm.is_matmul_tensor(total)


_D = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])


def _group_sum(group, m):
    """GroupSum(m): the orbit sum of the term of monomial m."""
    n = group.dim
    return mm.orbit_sum(group, Tensor(n, [mm.monomial_term(n, *m)]))


@pytest.mark.parametrize("source, corner", [
    (mm.klein_group(), (Fraction(3, 4), 3)),
    (mm.cyclic_partition(), (Fraction(3, 4), 3)),
    (mm.IsotropyGroup([mm.Isotropy.identity(1)]), (0, 0)),
    (mm.IsotropyGroup([mm.Isotropy.identity(2)]), (0, 0)),
    (mm.IsotropyGroup([mm.Isotropy.identity(3)]), (0, 0)),
    (mm.IsotropyGroup([mm.Isotropy.identity(3), mm.Isotropy(_D, _D, _D)]),
     (Fraction(1, 2), 1)),
], ids=["klein", "cyclic", "trivial-n1", "trivial-n2", "trivial-n3",
        "signed"])
def test_correction_term_read_off_identity(source, corner):
    """R closes the decomposition identity, is stabilized by the group,
    and pins the corner coefficient and its total weight."""
    n = source.dim
    if isinstance(source, mm.IsotropyGroup):
        partition = mm.monomial_partition(source)
        group_sum = lambda m: _group_sum(source, m)
    else:  # partition data only: stab copies of each orbit member
        partition = source
        group_sum = lambda m: mm.orbit_partition_sum(
            source, [int(m in orbit) for orbit, _ in source.orbits])
    res = mm.correction_term(partition)
    rest = range(2, n + 1)
    bulk = Tensor(n, [tm for m in product(rest, rest, rest)
                      for tm in group_sum(m).terms])
    total = mm.combine(mm.combine(group_sum((1, 1, 1)), 1, bulk, 1),
                       1, res.tensor, -1)
    assert mm.form_equal(total, mm.classical(n))
    if isinstance(source, mm.IsotropyGroup):
        assert all(is_form_stabilized(g, res.tensor) for g in source)
    assert (res.corner_coefficient, res.corner_total_weight) == corner


@pytest.mark.parametrize("partition, weights", [
    # the paper's weights: 1/2 on three group sums, 3/4 on the corner
    (mm.monomial_partition(mm.klein_group()),
     {(2, 3, 3): Fraction(1, 2), (3, 2, 3): Fraction(1, 2),
      (3, 3, 2): Fraction(1, 2), (3, 3, 3): Fraction(3, 4)}),
    (mm.cyclic_partition(),
     {(3, 3, 2): Fraction(1, 2), (3, 2, 3): 1, (3, 3, 3): Fraction(3, 4)}),
    # the corner orbit holds three summed monomials; the two orbits of
    # permutations of (1, 2, 3) hold none
    (mm.monomial_partition(three_cycle_group()),
     {(3, 3, 3): 2, (1, 2, 3): -1, (1, 3, 2): -1}),
], ids=["klein", "cyclic", "three-cycle"])
def test_correction_term_is_partition_sum_of_weights(partition, weights):
    """R is the partition sum with weight c(O) on the group sum of each
    orbit O, term for term, and weight 0 on every orbit not listed."""
    coeffs = [next((w for m, w in weights.items() if m in orbit), 0)
              for orbit, _ in partition.orbits]
    assert mm.write_tensor_file(mm.correction_term(partition).tensor) == \
        mm.write_tensor_file(mm.orbit_partition_sum(partition, coeffs))


def test_correction_term_refuses_non_monomial_group():
    """(G, G, G), G = [[1, 1], [0, -1]], is a closed involution group that
    maps monomial terms to dense ones, so it has no monomial orbits."""
    g = mm.Matrix([[1, 1], [0, -1]])
    group = mm.IsotropyGroup([mm.Isotropy.identity(2), mm.Isotropy(g, g, g)])
    with pytest.raises(ValueError, match="monomially"):
        mm.correction_term(mm.monomial_partition(group))


def _expanded_correction(group):
    """Reference for correction_term: the expansion of the identity's
    residual, group sums built through act minus classical(n), one
    monomial term per nonzero entry; the corner coefficient is the entry
    at (n,n,n) over the corner group sum's own entry there."""
    n = group.dim
    rest = range(2, n + 1)
    d, sums = mm.expansion(Tensor(n, [
        *(tm for m in [(1, 1, 1), *product(rest, rest, rest)]
          for tm in _group_sum(group, m).terms),
        *(tm.scaled(-1) for tm in mm.classical(n).terms)]))
    residual = lambda m: Fraction(sums.get(monomial_key(n, *m), 0), d)
    tensor = Tensor(n, [mm.monomial_term(n, *m).scaled(residual(m))
                        for m in product(range(1, n + 1), repeat=3)
                        if residual(m)])
    assert mm.expansion(tensor) == (d, sums)
    corner = (n, n, n)
    d_corner, sums_corner = mm.expansion(_group_sum(group, corner))
    stab = Fraction(sums_corner[monomial_key(n, *corner)], d_corner)
    return tensor, residual(corner) / stab, residual(corner)


def _generated_group(gens, limit):
    """The group generated by isotropies, identity first; None once it
    has more than limit elements."""
    elements = [mm.Isotropy.identity(gens[0].dim)]
    keys = {elements[0].key()}
    for g in elements:  # grows while it is walked
        for h in gens:
            gh = mm.compose(g, h)
            if gh.key() not in keys:
                if len(elements) == limit:
                    return None
                keys.add(gh.key())
                elements.append(gh)
    return mm.IsotropyGroup(elements)


def _differential_groups():
    """The 216 cyclic groups generated by one permutation triple of S3^3,
    then 20 seeded groups of order <= 16 generated by two signed triples."""
    sps = signed_permutations(3)
    perms = [p for p in sps if all(s == 1 for _, s in p.images)]
    triple = lambda fs: mm.Isotropy(*(perm_matrix(f) for f in fs))
    yield from (_generated_group([triple(fs)], 6)
                for fs in product(perms, repeat=3))
    rng, found = random.Random(7), 0
    while found < 20:
        group = _generated_group([triple(rng.choices(sps, k=3)),
                                  triple(rng.choices(sps, k=3))], 16)
        if group is not None:
            found += 1
            yield group


def test_correction_term_matches_expanded_reader():
    """Counting orbit sizes gives the tensor, byte for byte, and the corner
    numbers that reading the expanded identity gives."""
    groups = 0
    for group in _differential_groups():
        res = mm.correction_term(mm.monomial_partition(group))
        tensor, coefficient, weight = _expanded_correction(group)
        assert mm.write_tensor_file(res.tensor) == \
            mm.write_tensor_file(tensor)
        assert (res.corner_coefficient, res.corner_total_weight) == \
            (coefficient, weight)
        groups += 1
    assert groups == 236


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("solve, golden", [
    (lambda: mm.correction_term(mm.monomial_partition(mm.klein_group())),
     "correction_klein"),
    (lambda: mm.correction_term(mm.cyclic_partition()), "correction_cyclic"),
    (lambda: mm.correction_term(_trivial_n2_sources()[0]),
     "correction_trivial_n2"),
    (lambda: mm.correction_term(_trivial_n2_sources()[1]),
     "correction_trivial_n2"),
], ids=["klein", "cyclic", "trivial-n2-group", "trivial-n2-partition"])
def test_correction_term_golden(solve, golden):
    # Term order and the split of each weight over the factors are pinned,
    # not just the trilinear form.
    text = (GOLDEN / f"{golden}.tensor").read_text()
    assert mm.write_tensor_file(solve().tensor) == text


@pytest.mark.parametrize("lam, golden", [
    (1, "1"), (-2, "m2"), (Fraction(3, 4), "3_4"), (Fraction(-5, 3), "m5_3"),
])
def test_laderman_variant_golden(lam, golden):
    # Pins the merge order and every factor's scaling, not just the form.
    text = (GOLDEN / f"laderman_variant_{golden}.tensor").read_text()
    assert mm.write_tensor_file(mm.laderman_variant(lam)) == text


def _group_sum_correction(group):
    """R as group sums: per orbit O, first met at m in lexicographic
    order, GroupSum(m) scaled by w / stab with w = stab * |O & summed| - 1,
    where w is not 0."""
    n = group.dim
    rest = range(2, n + 1)
    summed = {(1, 1, 1), *product(rest, rest, rest)}
    terms = []
    for orbit, stab in mm.monomial_partition(group).orbits:
        if w := stab * len(orbit & summed) - 1:
            terms.extend(tm.scaled(Fraction(w, stab))
                         for tm in _group_sum(group, min(orbit)).terms)
    return Tensor(n, terms)


def _seeded_lambdas(count, seed=23):
    """count distinct non-integral p/q of either sign, |p|, q <= 9."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                       rng.randint(2, 9))
        if lam.denominator > 1 and lam not in out:
            out.append(lam)
    return out


@pytest.mark.parametrize("lam", [1, -2, Fraction(3, 4), Fraction(-5, 3),
                                 *_seeded_lambdas(12)])
def test_laderman_variant_same_terms_as_group_sum_correction(lam):
    """R written as monomial terms or as group sums scaled by w / stab
    merges to the same rank-one terms in the same order: only the split
    of each term's scale over its factors moves."""
    group = mm.klein_group()
    base = _group_sum(group, (1, 1, 1))
    bulk = mm.orbit_sum(group, mm.lifted_winograd(lam))
    total = mm.combine(mm.combine(base, 1, bulk, 1),
                       1, _group_sum_correction(group), -1)
    assert [tm.key() for tm in mm.merge_shared_factors(total).terms] == \
        [tm.key() for tm in mm.laderman_variant(lam).terms]


def test_cyclic_partition_structure():
    part = mm.cyclic_partition()
    assert all(len(orbit) * stab == 4 for orbit, stab in part.orbits)
    klein = mm.monomial_partition(mm.klein_group())

    def orbit_by_member(p, m):
        return p.orbit_of(m)[0]

    # the two partitions agree on three orbits and on two pairwise unions
    assert orbit_by_member(part, (2, 3, 3)) == \
        orbit_by_member(klein, (2, 3, 3)) | orbit_by_member(klein, (3, 2, 3))
    assert (orbit_by_member(part, (3, 2, 2))
            | orbit_by_member(part, (2, 3, 2))) == \
        (orbit_by_member(klein, (2, 3, 2))
         | orbit_by_member(klein, (3, 2, 2)))


def test_laderman_variant():
    for lam in (1, 2, Fraction(5, 7)):
        v = mm.laderman_variant(lam)
        assert mm.decomposition_length(v) == 23
        assert mm.is_matmul_tensor(v)
        assert mm.tensor_type(v) == LADERMAN_TYPE
    with pytest.raises(ValueError):
        mm.laderman_variant(0)


def test_variant_is_not_literally_laderman():
    assert canonical_terms(mm.laderman_variant(1)) != \
        canonical_terms(mm.laderman())


def test_builtin_lookup():
    assert mm.builtin("classical-4").dim == 4
    assert mm.decomposition_length(mm.builtin("winograd", 2)) == 7
    assert mm.builtin("laderman-variant", Fraction(5, 7)).dim == 3
    with pytest.raises(KeyError):
        mm.builtin("nonesuch")
    for name in ("classical-x", "classical-+3", "classical-1_0",
                 "classical-\u0663"):
        with pytest.raises(KeyError):
            mm.builtin(name)


def test_builtin_classical_bound():
    from mmtensor.constructions import MAX_CLASSICAL_SIZE
    for n in (0, MAX_CLASSICAL_SIZE + 1, 100000):
        with pytest.raises(ValueError, match=f"1..{MAX_CLASSICAL_SIZE}"):
            mm.builtin(f"classical-{n}")
