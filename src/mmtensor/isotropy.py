"""Sandwiching isotropies, finite groups of them, orbits and stabilizers.

An isotropy is a triple (G1, G2, G3) of invertible matrices acting on a
rank-one term as

    (G1^-T T_a G2^T) (x) (G2^-T T_b G3^T) (x) (G3^-T T_c G1^T),

extended over a decomposition term by term.  Element equality is projective:
each factor matters only up to a nonzero scalar.

SignedPerm is the one signed-permutation type.  A signed permutation matrix G
is orthogonal, so G^-T = G and each factor maps to P T Q^T: a relabeling of
its entries with signs.  Triples of them (every Klein element and every
stabilizer-search result) act that way; act, monomial orbits and the search
all read images forward, index j going to images[j - 1].  Every other triple
gets its inverse transposes, and a singular factor is refused, when the
Isotropy is built.

MonomialOrbitPartition is the one orbit type: monomial_partition reads it
off a group's index maps, and a partition can also be given by orbit data
alone, for a group whose elements are not known.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product

from .matrix import Matrix, as_fraction, projective_key
from .tensor import Tensor, expansion, map_factors, monomial_term

Monomial = tuple[int, int, int]


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation matrix: images[j - 1] = (row, sign) of the one
    nonzero entry of column j, 1-based."""

    images: tuple[tuple[int, int], ...]

    @staticmethod
    def from_matrix(g: Matrix) -> "SignedPerm | None":
        """The signed permutation with matrix g; None unless g is square
        with exactly one +-1 in each column, in rows that all differ."""
        images = [None] * g.cols
        for i, j, v in g.entries():
            if v not in (1, -1) or images[j - 1] is not None:
                return None
            images[j - 1] = (i, int(v))
        if (g.rows != g.cols or None in images
                or len({r for r, _ in images}) != g.cols):
            return None
        return SignedPerm(tuple(images))


@dataclass(frozen=True, slots=True)
class Isotropy:
    """A sandwiching triple of invertible n x n matrices: _perms holds its
    SignedPerms, or else _pairs holds (G^-T, G^T) per factor."""

    g1: Matrix
    g2: Matrix
    g3: Matrix
    _perms: tuple | None = field(init=False, compare=False, repr=False)
    _pairs: tuple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        factors = self.factors()
        if any(not g.is_square() or g.rows != self.g1.rows for g in factors):
            raise ValueError("isotropy factors must be square, same size")
        perms = tuple(map(SignedPerm.from_matrix, factors))
        pairs = None
        if None in perms:
            perms = None
            try:
                pairs = tuple((g.inverse().transpose(), g.transpose())
                              for g in factors)
            except ValueError:
                raise ValueError("singular isotropy factor") from None
        object.__setattr__(self, "_perms", perms)
        object.__setattr__(self, "_pairs", pairs)

    @property
    def dim(self) -> int:
        return self.g1.rows

    def factors(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.g1, self.g2, self.g3)

    @staticmethod
    def identity(n: int) -> "Isotropy":
        e = Matrix.identity(n)
        return Isotropy(e, e, e)

    def key(self) -> tuple:
        """The factors' projective keys: equal iff equal up to scalars."""
        return tuple(map(projective_key, self.factors()))

    def __repr__(self) -> str:
        return f"Isotropy(dim={self.dim})"


def _relabel(m: Matrix, p: SignedPerm, q: SignedPerm) -> Matrix:
    """P m Q^T."""
    n = m.rows
    num = [0] * (n * n)
    for k, (r, s) in zip(range(0, n * n, n), p.images):
        for (c, u), v in zip(q.images, m.num[k:k + n]):
            num[(r - 1) * n + c - 1] = v if s == u else -v
    return Matrix.from_ints(m.den, n, num)


def act(g: Isotropy, t: Tensor) -> Tensor:
    """Apply the sandwiching action term by term; term count is preserved."""
    if g.dim != t.dim:
        raise ValueError("isotropy/tensor dimension mismatch")
    if g._perms is not None:
        return map_factors(t, _relabel, g._perms, t.dim)
    return map_factors(t, lambda m, x, y: x[0] @ m @ y[1], g._pairs, t.dim)


def compose(g: Isotropy, h: Isotropy) -> Isotropy:
    """Composition with act(compose(g, h), t) == act(g, act(h, t))."""
    return Isotropy(g.g1 @ h.g1, g.g2 @ h.g2, g.g3 @ h.g3)


class IsotropyGroup:
    """A finite group of isotropies, the first being the identity.

    The elements must be pairwise distinct up to scalars and closed under
    compose; inverses then need no check, since in a finite closed set
    some power g^k is the identity and g^-1 = g^(k-1) is in the set.
    """

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("empty isotropy group")
        if any(g.dim != elements[0].dim for g in elements):
            raise ValueError("isotropy group elements differ in dimension")
        if elements[0].key() != Isotropy.identity(elements[0].dim).key():
            raise ValueError("first group element must be the identity triple")
        keys = {g.key() for g in elements}
        if len(keys) != len(elements) or any(
                compose(g, h).key() not in keys
                for g in elements for h in elements):
            raise ValueError("isotropy group is not closed")
        self.elements = elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim


def orbit_sum(group: IsotropyGroup, t: Tensor) -> Tensor:
    """Sum of act(g, t) over the group, by term concatenation."""
    terms = []
    for g in group:
        terms.extend(act(g, t).terms)
    return Tensor(t.dim, terms)


def is_term_stabilizer(group: IsotropyGroup, t: Tensor) -> bool:
    """True iff every group element permutes the term multiset of t.

    Terms are compared up to the scaling (a,b,c) ~ (alpha a, beta b,
    c/(alpha beta)) that leaves a rank-one tensor unchanged.
    """
    ref = Counter(tm.key() for tm in t.nonzero_terms())
    return all(Counter(tm.key() for tm in act(g, t).nonzero_terms()) == ref
               for g in group)


# -- monomial orbits -------------------------------------------------------------

@dataclass(frozen=True)
class MonomialOrbitPartition:
    """Disjoint monomial orbits, with per-orbit stabilizer orders, that
    cover the cube {1..dim}^3."""

    group_order: int
    orbits: tuple[tuple[frozenset, int], ...]
    dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", max(
            (x for orbit, _ in self.orbits for m in orbit for x in m),
            default=1))
        seen: set[Monomial] = set()
        for orbit, stab in self.orbits:
            if seen & orbit:
                raise ValueError("orbits are not disjoint")
            seen |= orbit
            if stab < 1:
                raise ValueError("stabilizer orders must be at least 1")
            if len(orbit) * stab != self.group_order:
                raise ValueError("orbit size times stabilizer order must "
                                 "equal the group order")
        if seen != set(product(range(1, self.dim + 1), repeat=3)):
            raise ValueError("orbits do not cover every monomial")

    def orbit_of(self, m: Monomial) -> tuple[frozenset, int]:
        for orbit, stab in self.orbits:
            if m in orbit:
                return orbit, stab
        raise KeyError(f"monomial {m} not covered by the partition")


def monomial_partition(group: IsotropyGroup) -> MonomialOrbitPartition:
    """Partition of all n^3 monomials into orbits under a monomial action.

    A triple of signed permutations (f1, f2, f3) sends the term of
    (i, j, k) to exactly the term of (f1(i), f2(j), f3(k)): the factor
    signs s1(i)s2(j), s2(j)s3(k) and s3(k)s1(i) multiply to +1.  So the
    orbit of m is its image set under the index maps, and its stabilizer
    order is |group| / |orbit|.  ValueError when some element is not a
    signed permutation triple.
    """
    if any(g._perms is None for g in group):
        raise ValueError("group does not act monomially: some element is "
                         "not a signed permutation triple")
    maps = [tuple(tuple(r for r, _ in p.images) for p in g._perms)
            for g in group]
    cube = product(range(1, group.dim + 1), repeat=3)
    orbits = dict.fromkeys(frozenset((f1[i - 1], f2[j - 1], f3[k - 1])
                                     for f1, f2, f3 in maps)
                           for i, j, k in cube)
    return MonomialOrbitPartition(
        len(group), tuple((o, len(group) // len(o)) for o in orbits))


def orbit_partition_sum(partition: MonomialOrbitPartition, coeffs) -> Tensor:
    """Rebuild group sums from partition data alone.

    coeffs is one scalar per orbit (aligned with partition.orbits); the result
    is the sum over orbits of coeff * stabilizer_order * (sum of the orbit's
    monomial terms), one term per monomial of an orbit whose coeff is not 0,
    in lexicographic monomial order.
    """
    coeffs = list(coeffs)
    if len(coeffs) != len(partition.orbits):
        raise ValueError("need exactly one coefficient per orbit")
    scales = {}
    for (orbit, stab), coeff in zip(partition.orbits,
                                    map(as_fraction, coeffs)):
        if coeff:
            scales.update(dict.fromkeys(orbit, coeff * stab))
    dim = partition.dim
    return Tensor(dim, [monomial_term(dim, *m).scaled(s)
                        for m, s in sorted(scales.items())])


# -- brute-force stabilizer search over signed permutation triples ---------------

@cache
def signed_permutations(n: int) -> tuple[SignedPerm, ...]:
    """All n! * 2^n signed permutations, in a fixed deterministic order
    that starts with the identity."""
    return tuple(SignedPerm(tuple(zip(perm, signs)))
                 for perm in permutations(range(1, n + 1))
                 for signs in product((1, -1), repeat=n))


@cache
def _product_table(n: int):
    """table[i][j]: the index in signed_permutations(n) of the matrix
    product of its elements i and j."""
    sps = signed_permutations(n)
    index = {sp.images: i for i, sp in enumerate(sps)}

    def times(p, q):  # column j of PQ is P applied to column j of Q
        return index[tuple((p[r - 1][0], s * p[r - 1][1]) for r, s in q)]

    return tuple(tuple(times(p.images, q.images) for q in sps) for p in sps)


def _subgroup(table, member) -> set[int]:
    """The indices of the subgroup H = {g : member(g)} of the group with
    product table table, identity 0, calling member as few times as the
    subgroup structure allows: a member joins the generators and the group
    they generate needs no test, and a non-member g rules out g*h for
    every h already known to lie in H."""
    h, gens, out, reps = {0}, [], set(), []
    for g in range(len(table)):
        if g in h or g in out:
            continue
        if member(g):
            gens.append(g)
            todo = list(h)  # close h under right products by gens
            while todo:
                x = todo.pop()
                for s in gens:
                    if (y := table[x][s]) not in h:
                        h.add(y)
                        todo.append(y)
            out = {table[r][x] for r in reps for x in h}
        else:
            reps.append(g)
            out.update(table[g][x] for x in h)
    return h


@cache
def _f3_classes(n: int):
    """classes[l][m]: the f3 of signed_permutations(n) grouped by what an
    image entry reads off them, the flat key offset y n^2 + z n of their
    1-based image rows y, z of l and m and the product of those images'
    signs, as (offset, sign, bit mask of the f3): n at l = m, 2 n (n - 1)
    otherwise, against n! 2^n candidates."""
    n2 = n * n
    classes = [[{} for _ in range(n)] for _ in range(n)]
    for bit, f3 in enumerate(signed_permutations(n)):
        for (l, (y, sy)), (m, (z, sz)) in product(enumerate(f3.images),
                                                  repeat=2):
            group = classes[l][m]
            key = (y * n2 + z * n, sy * sz)
            group[key] = group.get(key, 0) | 1 << bit
    return [[tuple((*key, bits) for key, bits in group.items())
             for group in row] for row in classes]


def _stabilizer_masks(t: Tensor):
    """signed_permutations(n) and pair_mask(f1, f2): bit b of its result is
    set when (f1, f2, sps[b]) stabilizes t's trilinear form.  These triples
    are the stabilizer S of the form under a group action, so S is a
    subgroup of G^3, G being the signed permutations.

    Signed permutation matrices are orthogonal, so the acted form is a
    signed relabeling of the original, read forward off images as act
    does: a triple stabilizes the form iff it sends each entry of the
    expansion to an entry of the same int value, a missing one being 0.
    For each (f1, f2) an entry's a-pair, b-row and c-col images are fixed,
    which leaves a bit mask of the admissible f3 (memoized per image); the
    masks of all entries are ANDed.
    """
    n = t.dim
    if n > 3:
        raise ValueError("signed-perm search supports n <= 3")
    sums = expansion(t)[1]
    sps = signed_permutations(n)
    n2, n3, n4 = n * n, n ** 3, n ** 4
    # Each entry's base-n key digits (i, j), (k, l), (m, nn), positions
    # into images; image rows are 1-based, so a key built from them is
    # over by 1 in each of its six digits.
    entries = [(divmod(key // n4, n), divmod(key // n2 % n2, n),
                divmod(key % n2, n), v) for key, v in sums.items()]
    shift = sum(n ** p for p in range(6))
    full = (1 << len(sps)) - 1
    classes = _f3_classes(n)

    @cache
    def f3_mask(base, l, m, want):
        """Bits of the f3 that give the image entry at flat key base plus
        f3's images of l and m the value want."""
        mask = 0
        for offset, sign, bits in classes[l][m]:
            if sums.get(base + offset, 0) * sign == want:
                mask |= bits
        return mask

    def pair_mask(f1, f2):
        mask = full
        f1, f2 = f1.images, f2.images
        for (i, j), (k, l), (m, nn), c in entries:
            (x, si), (y, sj) = f1[i], f2[j]
            (z, sk), (w, sn) = f2[k], f1[nn]
            base = (x * n + y) * n4 + z * n3 + w - shift
            mask &= f3_mask(base, l, m, c * si * sj * sk * sn)
            if not mask:
                break
        return mask

    return sps, pair_mask


def monomial_stabilizer_search(t: Tensor) -> list[tuple[SignedPerm, ...]]:
    """All signed-permutation triples (f1, f2, f3) that stabilize t's
    trilinear form, as tuples of the signed_permutations(n) objects.

    Exhaustive over the (n! 2^n)^3 candidates, n <= 3, in lexicographic
    order of signed_permutations(n) indices.
    """
    sps, pair_mask = _stabilizer_masks(t)
    found = []
    for f1 in sps:
        for f2 in sps:
            mask = pair_mask(f1, f2)
            found.extend((f1, f2, f3) for bit, f3 in enumerate(sps)
                         if mask >> bit & 1)
    return found


def monomial_stabilizer_count(t: Tensor) -> int:
    """len(monomial_stabilizer_search(t)), as |pi1(S)| * |K2| * |K3|.

    S is a subgroup, so each nonempty fibre of its projection to (f1, f2)
    is a coset of K3 = {f3 : (e, e, f3) in S}; one level down, each fibre
    over f1 is a left coset f2 K2 of K2 = {f2 : (e, f2, f3) in S for some
    f3}.  K2 and pi1(S), the f1 with some partner f2, are subgroups of the
    signed permutations and are found by _subgroup; f1 is tested against
    one f2 of each left coset of K2, since a coset holds a partner of f1
    only if its every element is one.
    """
    sps, pair_mask = _stabilizer_masks(t)
    table = _product_table(t.dim)
    e = sps[0]
    k3 = pair_mask(e, e).bit_count()
    k2 = _subgroup(table, lambda g: pair_mask(e, sps[g]))
    reps, seen = [], set()
    for g in range(len(sps)):
        if g not in seen:
            reps.append(sps[g])
            seen.update(table[g][x] for x in k2)
    pi1 = _subgroup(table, lambda g: any(pair_mask(sps[g], f2)
                                          for f2 in reps))
    return len(pi1) * len(k2) * k3
