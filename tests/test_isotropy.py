import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import isotropy
from mmtensor import (Isotropy, IsotropyGroup, Matrix, MonomialOrbitPartition,
                      Tensor, act, compose)
from mmtensor.isotropy import (SignedPerm, monomial_stabilizer_count,
                               signed_permutations)

from conftest import canonical_terms, rand_matrix, three_cycle_group
from oracles import inverse, is_form_stabilized, is_invertible, perm_matrix


# Orbits of the four-group of row/column-12 swaps acting on the 27
# monomials of 3x3 multiplication: five of size 4, three of size 2, one
# fixed point.
KLEIN_ORBITS = [
    ({(1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 1, 2)}, 1),
    ({(2, 2, 2), (2, 1, 1), (1, 1, 2), (1, 2, 1)}, 1),
    ({(2, 2, 3), (2, 1, 3), (1, 1, 3), (1, 2, 3)}, 1),
    ({(2, 3, 2), (2, 3, 1), (1, 3, 2), (1, 3, 1)}, 1),
    ({(3, 2, 2), (3, 1, 1), (3, 1, 2), (3, 2, 1)}, 1),
    ({(2, 3, 3), (1, 3, 3)}, 2),
    ({(3, 2, 3), (3, 1, 3)}, 2),
    ({(3, 3, 2), (3, 3, 1)}, 2),
    ({(3, 3, 3)}, 4),
]


def test_isotropy_construction():
    with pytest.raises(ValueError, match="singular isotropy factor"):
        Isotropy(Matrix([[1, 2], [2, 4]]), Matrix.identity(2),
                 Matrix.identity(2))
    with pytest.raises(ValueError):
        Isotropy(Matrix.identity(2), Matrix.identity(3), Matrix.identity(2))
    g = Isotropy.identity(2)
    assert g.dim == 2


def test_act_preserves_form_of_matmul_tensor(rng):
    # sandwiching is an isotropy of the multiplication form
    for _ in range(5):
        factors = []
        while len(factors) < 3:
            m = rand_matrix(rng, 2)
            if is_invertible(m):
                factors.append(m)
        g = Isotropy(*factors)
        assert mm.form_equal(act(g, mm.strassen()), mm.strassen())


def test_act_is_left_action(rng):
    t = mm.strassen()
    gs = []
    while len(gs) < 2:
        ms = [rand_matrix(rng, 2) for _ in range(3)]
        if all(is_invertible(m) for m in ms):
            gs.append(Isotropy(*ms))
    g, h = gs
    assert act(compose(g, h), t) == act(g, act(h, t))
    assert act(compose(g, inverse(g)), t) == act(Isotropy.identity(2), t)


def test_act_refuses_a_dimension_mismatch():
    with pytest.raises(ValueError, match="isotropy/tensor dimension mismatch"):
        act(Isotropy.identity(2), mm.laderman())


def test_adjunction(rng):
    # pairing against the acted tensor equals pairing the original against
    # sandwiched arguments
    t = mm.strassen()
    ms = []
    while len(ms) < 3:
        m = rand_matrix(rng, 2)
        if is_invertible(m):
            ms.append(m)
    g = Isotropy(*ms)
    a, b, c = (rand_matrix(rng, 2) for _ in range(3))
    lhs = mm.full_contraction(act(g, t), a, b, c)
    rhs = mm.full_contraction(t,
                              g.g1.inverse() @ a @ g.g2,
                              g.g2.inverse() @ b @ g.g3,
                              g.g3.inverse() @ c @ g.g1)
    assert lhs == rhs


def test_type_invariance(rng):
    t = mm.laderman()
    ms = []
    while len(ms) < 3:
        m = rand_matrix(rng, 3)
        if is_invertible(m):
            ms.append(m)
    g = Isotropy(*ms)
    assert mm.tensor_type(act(g, t)) == mm.tensor_type(t)


def test_projective_equality():
    e = Matrix.identity(2)
    g = Isotropy(e, e, e)
    h = Isotropy(e.scale(3), e.scale(Fraction(-1, 2)), e)
    assert g.key() == h.key()
    assert g.key() != Isotropy(Matrix([[0, 1], [1, 0]]), e, e).key()


def test_group_invariants():
    with pytest.raises(ValueError):
        IsotropyGroup([])
    p = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    e = Matrix.identity(3)
    with pytest.raises(ValueError, match="identity"):
        IsotropyGroup([Isotropy(p, p, e)])
    K = mm.klein_group()
    assert len(K) == 4 and len(IsotropyGroup(list(K))) == 4
    # dropping an element breaks closure
    with pytest.raises(ValueError, match="not closed"):
        IsotropyGroup(list(K)[:2] + [list(K)[3]])


def test_orbit_sum_fixed_by_elements():
    K = mm.klein_group()
    s = mm.orbit_sum(K, mm.lifted_winograd(1))
    assert len(s.terms) == 4 * 7
    for g in K:
        assert mm.form_equal(act(g, s), s)


def test_form_vs_term_stabilizer():
    # the Winograd sandwiching triple fixes Strassen's form but shuffles
    # its decomposition into different rank-one terms
    g = mm.winograd_isotropy(2)
    assert is_form_stabilized(g, mm.strassen())
    assert canonical_terms(act(g, mm.strassen())) != \
        canonical_terms(mm.strassen())
    # the Klein group permutes the classical terms outright
    assert mm.is_term_stabilizer(mm.klein_group(), mm.classical(3))


def _sandwich(g, t):
    """The defining action G1^-T a G2^T, ... with rational Matrix ops."""
    (i1, i2, i3), (t1, t2, t3) = zip(*((f.inverse().transpose(), f.transpose())
                                       for f in g.factors()))
    return Tensor(t.dim, [mm.RankOneTerm(i1 @ tm.a @ t2, i2 @ tm.b @ t3,
                                         i3 @ tm.c @ t1) for tm in t.terms])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabeling_act_equals_rational_formula(data):
    n = data.draw(st.sampled_from([2, 3]))
    sps = signed_permutations(n)
    g = Isotropy(*(perm_matrix(data.draw(st.sampled_from(sps)))
                   for _ in range(3)))
    entry = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2),
                             Fraction(3, 5)])
    row = st.lists(entry, min_size=n, max_size=n)
    matrix = st.lists(row, min_size=n, max_size=n).map(Matrix)
    t = Tensor(n, data.draw(st.lists(st.builds(mm.RankOneTerm, matrix,
                                               matrix, matrix), max_size=3)))
    assert act(g, t) == _sandwich(g, t)


def test_non_monomial_act_equals_rational_formula():
    p = Matrix([[0, 1, 0], [0, 0, -1], [1, 0, 0]])
    for g, t in [(mm.winograd_isotropy(Fraction(3, 4)), mm.strassen()),
                 (Isotropy(p.scale(2), p, -p), mm.laderman())]:
        assert act(g, t) == _sandwich(g, t)


@pytest.mark.parametrize("make, stabilized", [
    (lambda: mm.laderman_variant(1), True),
    (lambda: mm.laderman_variant(-2), True),
    (lambda: mm.laderman_variant(Fraction(3, 4)), True),
    (lambda: mm.laderman_variant(Fraction(-5, 3)), True),
    (mm.laderman, False),
], ids=["variant-1", "variant-m2", "variant-3_4", "variant-m5_3", "laderman"])
def test_klein_term_stabilizer_pinned(make, stabilized):
    assert mm.is_term_stabilizer(mm.klein_group(), make()) is stabilized


def test_monomial_orbit_examples():
    K = mm.monomial_partition(mm.klein_group())
    orbit, stab = K.orbit_of((3, 3, 3))
    assert orbit == {(3, 3, 3)} and stab == 4
    orbit, stab = K.orbit_of((2, 3, 3))
    assert orbit == {(2, 3, 3), (1, 3, 3)} and stab == 2
    orbit, stab = K.orbit_of((1, 1, 1))
    assert orbit == {(1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 1, 2)} and stab == 1


def test_monomial_orbit_rejects_non_monomial_action():
    # a closed involution group: G = [[1, 1], [0, -1]] squares to I
    g = Matrix([[1, 1], [0, -1]])
    G = IsotropyGroup([Isotropy.identity(2), Isotropy(g, g, g)])
    with pytest.raises(ValueError, match="monomially"):
        mm.monomial_partition(G)


_C3 = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
_R = Isotropy(_C3, _C3, _C3)


# None of these is a group, so IsotropyGroup refuses each and no partition
# is read.  Klein minus one element: two of its swaps compose to the
# missing one.  {e, r} for a 3-cycle r: r^2 is missing.  e, e, r, r, r,
# r^2: the keys repeat, and the images of m would reach r(m) three times
# and r^2(m) once, which breaks the counting identity of a group sum.
# (I, I, I) and (-I, I, I): one element up to scale, listed twice.
@pytest.mark.parametrize("elements", [
    lambda: list(mm.klein_group())[:3],
    lambda: [Isotropy.identity(3), _R],
    lambda: [Isotropy.identity(3)] * 2 + [_R] * 3 + [mm.compose(_R, _R)],
    lambda: [Isotropy.identity(3),
             Isotropy(Matrix.identity(3).scale(-1), Matrix.identity(3),
                      Matrix.identity(3))],
], ids=["klein-minus-one", "image-sets-differ", "uneven-counts",
        "same-up-to-scale"])
def test_monomial_partition_refuses_non_closed_group(elements):
    with pytest.raises(ValueError, match="^isotropy group is not closed$"):
        mm.monomial_partition(IsotropyGroup(elements()))


def test_group_refuses_mixed_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        IsotropyGroup([Isotropy.identity(3), Isotropy.identity(2)])


def test_monomial_partition_matches_reference():
    part = mm.monomial_partition(mm.klein_group())
    got = {(orbit, stab) for orbit, stab in part.orbits}
    want = {(frozenset(o), s) for o, s in KLEIN_ORBITS}
    assert got == want
    assert part.dim == 3
    assert part.orbit_of((3, 3, 2)) == (frozenset({(3, 3, 2), (3, 3, 1)}), 2)
    with pytest.raises(KeyError):
        part.orbit_of((4, 4, 4))


def test_partition_stores_dim_outside_its_value():
    """dim is read off the orbits once, when the partition is built, and
    takes no part in equality, hash or repr."""
    part = mm.monomial_partition(mm.klein_group())
    again = MonomialOrbitPartition(part.group_order, part.orbits)
    assert vars(part)["dim"] == again.dim == 3
    assert part == again and hash(part) == hash(again)
    assert repr(part) == ("MonomialOrbitPartition(group_order=4, "
                          f"orbits={part.orbits!r})")


def test_partition_validation():
    with pytest.raises(ValueError, match="disjoint"):
        MonomialOrbitPartition(2, ((frozenset({(1, 1, 1), (1, 2, 2)}), 1),
                                   (frozenset({(1, 1, 1)}), 2)))
    with pytest.raises(ValueError, match="group order"):
        MonomialOrbitPartition(4, ((frozenset({(1, 1, 1)}), 1),))
    # dim 2 from (2, 2, 2), so six monomials of {1, 2}^3 are missing
    with pytest.raises(ValueError, match="cover"):
        MonomialOrbitPartition(1, ((frozenset({(1, 1, 1)}), 1),
                                   (frozenset({(2, 2, 2)}), 1)))


@pytest.mark.parametrize("order, n", [(-1, 2), (0, 1)])
def test_partition_refuses_stabilizer_below_one(order, n):
    """Singleton orbits with stabilizer order equal to the group order
    pass the orbit-stabilizer product, but no group has order below 1
    (order -1 gave an 8-term R, order 0 a ZeroDivisionError)."""
    orbits = tuple((frozenset({m}), order)
                   for m in product(range(1, n + 1), repeat=3))
    with pytest.raises(ValueError, match="at least 1"):
        MonomialOrbitPartition(order, orbits)


def test_orbit_partition_sum_matches_group_sum():
    K = mm.klein_group()
    part = mm.monomial_partition(K)
    # weight 1/stab puts every monomial back exactly once
    coeffs = [Fraction(1, stab) for _, stab in part.orbits]
    assert mm.form_equal(mm.orbit_partition_sum(part, coeffs),
                         mm.classical(3))
    # weight 1 rebuilds the per-orbit group sums; summing group sums of all
    # 27 monomials (|orbit| copies of each orbit's sum) gives |K| x classical
    sums = [mm.orbit_partition_sum(part, [Fraction(int(i == k))
                                          for i in range(len(part.orbits))])
            for k in range(len(part.orbits))]
    total = Tensor(3, [tm.scaled(len(orbit))
                       for (orbit, _), s in zip(part.orbits, sums)
                       for tm in s.terms])
    assert mm.form_equal(total, mm.orbit_sum(K, mm.classical(3)))
    with pytest.raises(ValueError):
        mm.orbit_partition_sum(part, [1])
    # coefficients are exact rationals, as for combine and scaled
    with pytest.raises(TypeError, match="exact rational"):
        mm.orbit_partition_sum(part, [0.1] * len(part.orbits))
    for k, (orbit, _) in enumerate(part.orbits):
        term = Tensor(3, [mm.monomial_term(3, *min(orbit))])
        assert mm.form_equal(mm.orbit_sum(K, term), sums[k])


def test_orbit_partition_sum_writes_monomial_order():
    """One term per monomial of an orbit with a nonzero coefficient, in
    lexicographic monomial order: not orbit by orbit, as the 3-cycle's
    first orbit is {(1,1,1), (2,2,2), (3,3,3)}."""
    part = mm.monomial_partition(three_cycle_group())
    assert part.orbits[0] == (frozenset({(1, 1, 1), (2, 2, 2), (3, 3, 3)}), 1)
    coeffs = [k % 3 for k in range(len(part.orbits))]
    coeff = {m: c for (orbit, _), c in zip(part.orbits, coeffs) for m in orbit}
    want = Tensor(3, [mm.monomial_term(3, *m).scaled(coeff[m])
                      for m in product(range(1, 4), repeat=3) if coeff[m]])
    assert mm.write_tensor_file(mm.orbit_partition_sum(part, coeffs)) == \
        mm.write_tensor_file(want)


def _isotropy(tri):
    return Isotropy(*(perm_matrix(f) for f in tri))


def test_signed_triple_sends_monomial_term_to_image_term():
    """(f1, f2, f3) sends the term of (i, j, k) to exactly the term of
    (f1(i), f2(j), f3(k)): the factor signs s1 s2, s2 s3 and s3 s1
    multiply to +1.  Exhaustive at n = 2."""
    sps = signed_permutations(2)
    for tri in product(sps, repeat=3):
        g = _isotropy(tri)
        for m in product((1, 2), repeat=3):
            image = tuple(f.images[x - 1][0] for f, x in zip(tri, m))
            got = act(g, Tensor(2, [mm.monomial_term(2, *m)])).terms[0]
            assert got.key() == mm.monomial_term(2, *image).key()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_perm_from_matrix_roundtrip(n):
    for sp in signed_permutations(n):
        assert SignedPerm.from_matrix(perm_matrix(sp)) == sp


def test_signed_perm_from_matrix_refuses_others():
    p = perm_matrix(signed_permutations(3)[5])
    assert SignedPerm.from_matrix(p.scale(2)) is None
    # one 1 in each column, but row 1 holds two of them
    assert SignedPerm.from_matrix(Matrix([[1, 1, 0], [0, 0, 1],
                                          [0, 0, 0]])) is None
    # winograd_isotropy(1) is a signed permutation only in its first factor
    g1, g2, g3 = mm.winograd_isotropy(1).factors()
    assert SignedPerm.from_matrix(g1) is not None
    assert SignedPerm.from_matrix(g2) is None
    assert SignedPerm.from_matrix(g3) is None


def test_signed_permutations_count():
    assert len(signed_permutations(2)) == 8
    assert len(signed_permutations(3)) == 48


def test_stabilizer_search_matmul_tensors_pass_everything():
    # every sandwiching triple fixes the multiplication form
    found = mm.monomial_stabilizer_search(mm.classical(2))
    assert len(found) == 8 ** 3
    e = signed_permutations(2)[0]
    assert (e, e, e) in found
    assert found[0] == (e, e, e)


def test_stabilizer_search_discriminates_non_matmul():
    t = Tensor(2, [mm.monomial_term(2, 1, 1, 1)])
    found = mm.monomial_stabilizer_search(t)
    # perms must fix index 1 in all three slots; signs cancel pairwise
    assert len(found) == 4 ** 3
    # agreement with the direct definition on a sample
    for tri in found[:10]:
        assert is_form_stabilized(_isotropy(tri), t)


def test_stabilizer_search_agrees_with_direct_check():
    # a 2-term non-multiplication tensor, exhaustively cross-checked
    t = Tensor(2, [mm.monomial_term(2, 1, 2, 1), mm.monomial_term(2, 2, 1, 2)])
    found = set(mm.monomial_stabilizer_search(t))
    sps = signed_permutations(2)
    direct = set()
    for f1 in sps:
        for f2 in sps:
            for f3 in sps:
                g = Isotropy(perm_matrix(f1), perm_matrix(f2), perm_matrix(f3))
                if is_form_stabilized(g, t):
                    direct.add((f1, f2, f3))
    assert found == direct


def _scaled_monomials(*pairs):
    return Tensor(3, [mm.monomial_term(3, *m).scaled(c) for m, c in pairs])


# Search result sizes at n = 3.  In the last tensor a relabeling can swap
# the values 1/2 and -1/2, so the signs of the match decide.
PINNED_COUNTS = [
    (mm.lifted_winograd, 4096),
    (mm.klein_orbit_sum_winograd, 2048),
    (lambda: mm.tensor_zero(mm.laderman(), (1, 2, 3)), 4096),
    (lambda: _scaled_monomials(((1, 2, 3), Fraction(1, 2)),
                               ((2, 3, 1), Fraction(-1, 2)),
                               ((3, 3, 3), 2)), 512),
    (lambda: _scaled_monomials(((1, 1, 1), Fraction(1, 2)),
                               ((2, 2, 2), Fraction(-1, 2)),
                               ((3, 3, 3), 2)), 512),
]


@pytest.mark.parametrize("make, count", PINNED_COUNTS,
                         ids=["lifted-winograd", "klein-orbit-sum",
                              "laderman-zero-123", "halves-cycled",
                              "halves-diagonal"])
def test_stabilizer_search_pinned_n3(make, count):
    t = make()
    found = mm.monomial_stabilizer_search(t)
    assert len(found) == count == monomial_stabilizer_count(t)
    sps = signed_permutations(3)
    index = {sp: i for i, sp in enumerate(sps)}
    keys = [tuple(index[f] for f in tri) for tri in found]
    assert keys == sorted(set(keys))
    for tri in found[::count // 5]:
        assert is_form_stabilized(_isotropy(tri), t)
    # candidates next to the found ones that the search rejected
    found_keys = set(keys)
    for a, b, c in keys[::count // 5]:
        c2 = (c + 1) % len(sps)
        if (a, b, c2) not in found_keys:
            tri = (sps[a], sps[b], sps[c2])
            assert not is_form_stabilized(_isotropy(tri), t)


def test_stabilizer_search_three_cycle_checked_in_full():
    """Cycling the three indices fixes this form, and inverting one factor
    of a stabilizing triple need not: every found triple is checked."""
    t = _scaled_monomials(((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1))
    found = mm.monomial_stabilizer_search(t)
    assert len(found) == 3072 == monomial_stabilizer_count(t)
    assert all(is_form_stabilized(_isotropy(tri), t) for tri in found)


def _signed_monomial_sum(n, seed):
    rng = random.Random(seed)
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
    return Tensor(n, [mm.monomial_term(n, *(rng.randint(1, n)
                                            for _ in range(3)))
                      .scaled(rng.choice(coeffs))
                      for _ in range(rng.randint(1, 2 * n))])


# name: (tensor, (|pi1(S)|, |K2|, |K3|) or None).  In klein-orbit-sum pi1(S)
# is a proper subgroup and |K2| != |K3|; in diagonal-pair an f1 swapping 1
# and 2 needs an f2 that swaps them too, so S over pi1(S) is not a product.
COSET_CASES = {
    "empty": (lambda: Tensor(3, []), None),
    "classical-1": (lambda: mm.classical(1), None),
    "klein-orbit-sum": (mm.klein_orbit_sum_winograd, (16, 16, 8)),
    "diagonal-pair": (lambda: Tensor(3, [mm.monomial_term(3, 1, 1, 1),
                                         mm.monomial_term(3, 2, 2, 2)]),
                      (16, 8, 8)),
    **{f"signed-monomials-n{n}-{seed}":
       (lambda n=n, seed=seed: _signed_monomial_sum(n, seed), None)
       for n in (2, 3) for seed in range(10)},
}


@pytest.mark.parametrize("make, factors", COSET_CASES.values(),
                         ids=COSET_CASES.keys())
def test_stabilizer_count_is_coset_product(make, factors):
    t = make()
    found = mm.monomial_stabilizer_search(t)
    e = signed_permutations(t.dim)[0]
    assert perm_matrix(e) == Matrix.identity(t.dim)
    pi1 = {f1 for f1, _, _ in found}
    k2 = {f2 for f1, f2, _ in found if f1 == e}
    k3 = {f3 for f1, f2, f3 in found if f1 == f2 == e}
    assert monomial_stabilizer_count(t) == len(found) == \
        len(pi1) * len(k2) * len(k3)
    if factors is not None:
        assert (len(pi1), len(k2), len(k3)) == factors


def _counting_pair_masks(monkeypatch):
    """Patch _stabilizer_masks so each pair_mask call is logged; returns
    the log."""
    calls = []
    masks = isotropy._stabilizer_masks

    def spy(t):
        sps, pair_mask = masks(t)
        return sps, lambda f1, f2: calls.append((f1, f2)) or pair_mask(f1, f2)

    monkeypatch.setattr(isotropy, "_stabilizer_masks", spy)
    return calls


def test_stabilizer_count_tests_generators_only(monkeypatch):
    """Every signed-permutation triple fixes the 3x3 multiplication form,
    so K3, K2 and pi1(S) are all of G: one mask for K3, then one per
    generator that _subgroup meets for K2 and pi1(S), where a scan of G
    would take 48 for K2 and at least 48 more for pi1(S)."""
    calls = _counting_pair_masks(monkeypatch)
    assert monomial_stabilizer_count(mm.laderman()) == 110592
    assert len(calls) <= 12
    calls.clear()
    assert monomial_stabilizer_count(mm.Tensor(
        3, mm.laderman().terms[1:])) == 128
    assert len(calls) < 48 * 48


def _closure(gens):
    """The group generated by the signed permutations gens, by matrix
    products."""
    group = {Matrix.identity(gens[0].rows)}
    todo = list(group)
    while todo:
        x = todo.pop()
        for g in gens:
            if (y := x @ g) not in group:
                group.add(y)
                todo.append(y)
    return group


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 47), min_size=1, max_size=2))
def test_subgroup_finds_generated_subgroups(gens):
    """_subgroup, told only which elements are members, returns the
    subgroup of signed_permutations(3) that 1 or 2 elements generate."""
    sps = signed_permutations(3)
    mats = [perm_matrix(sp) for sp in sps]
    want = _closure([mats[g] for g in gens])
    table = isotropy._product_table(3)
    tested = []
    found = isotropy._subgroup(
        table, lambda g: tested.append(g) or mats[g] in want)
    assert {mats[g] for g in found} == want
    assert len(found) == len(want)
    assert len(tested) == len(set(tested)) < len(sps)


def test_signed_perm_product_table_is_matrix_product():
    sps, table = signed_permutations(3), isotropy._product_table(3)
    for i, j in product(range(len(sps)), repeat=2):
        assert (perm_matrix(sps[table[i][j]])
                == perm_matrix(sps[i]) @ perm_matrix(sps[j]))


def test_stabilizer_search_refuses_n4():
    with pytest.raises(ValueError, match="n <= 3"):
        mm.monomial_stabilizer_search(mm.classical(4))


_COEFFS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
           Fraction(2)]
_ISOTROPIES_N2 = {}


def _term_n2():
    monomial = st.builds(lambda m, c: mm.monomial_term(2, *m).scaled(c),
                         st.tuples(*[st.integers(1, 2)] * 3),
                         st.sampled_from(_COEFFS))
    entry = st.sampled_from([Fraction(0)] + _COEFFS)
    matrix = st.builds(Matrix, st.lists(st.lists(entry, min_size=2,
                                                 max_size=2),
                                        min_size=2, max_size=2))
    return monomial | st.builds(mm.RankOneTerm, matrix, matrix, matrix)


@settings(max_examples=10, deadline=None)
@given(st.lists(_term_n2(), min_size=1, max_size=3))
def test_stabilizer_search_equals_exhaustive_check_n2(terms):
    t = Tensor(2, terms)
    sps = signed_permutations(2)
    if not _ISOTROPIES_N2:
        for tri in product(sps, repeat=3):
            _ISOTROPIES_N2[tri] = _isotropy(tri)
    direct = [tri for tri, g in _ISOTROPIES_N2.items()
              if is_form_stabilized(g, t)]
    assert mm.monomial_stabilizer_search(t) == direct
    assert monomial_stabilizer_count(t) == len(direct)


def _sparse_term_n3():
    entry = st.tuples(st.integers(1, 3), st.integers(1, 3))
    matrix = st.dictionaries(entry, st.sampled_from(_COEFFS), min_size=1,
                             max_size=2).map(
        lambda d: Matrix([[d.get((i, j), 0) for j in (1, 2, 3)]
                          for i in (1, 2, 3)]))
    return st.builds(mm.RankOneTerm, matrix, matrix, matrix)


def _tensor_and_triples(n, term):
    sps = st.sampled_from(signed_permutations(n))
    triple = st.tuples(sps, sps, sps)
    return st.tuples(st.lists(term, min_size=1, max_size=2)
                     .map(lambda terms: Tensor(n, terms)), triple, triple)


@settings(max_examples=12, deadline=None)
@given(st.one_of(_tensor_and_triples(2, _term_n2()),
                 _tensor_and_triples(3, _sparse_term_n3())), st.data())
def test_stabilizer_search_is_conjugation_equivariant(case, data):
    """t sums t0 over the cyclic group of h, so h is in its stabilizer S.
    The stabilizer of act(g, t) is g S g^-1, and S is closed under
    products; products are taken as matrix products."""
    t0, h, g = case
    powers = [Isotropy.identity(t0.dim)]
    while (p := compose(_isotropy(h), powers[-1])).key() != powers[0].key():
        powers.append(p)
    t = mm.orbit_sum(IsotropyGroup(powers), t0)
    conj = [{sp: SignedPerm.from_matrix(perm_matrix(f) @ perm_matrix(sp)
                                        @ perm_matrix(f).transpose())
             for sp in signed_permutations(t.dim)} for f in g]
    found = mm.monomial_stabilizer_search(t)
    moved = mm.monomial_stabilizer_search(act(_isotropy(g), t))
    members = set(found)
    assert h in members
    assert set(moved) == {tuple(c[f] for c, f in zip(conj, tri))
                          for tri in found}
    assert len(moved) == len(found)
    x, y = (data.draw(st.sampled_from(found)) for _ in range(2))
    assert tuple(SignedPerm.from_matrix(perm_matrix(a) @ perm_matrix(b))
                 for a, b in zip(x, y)) in members


def test_import_leaves_numpy_out():
    src = str(Path(mm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, mmtensor, mmtensor.cli; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
