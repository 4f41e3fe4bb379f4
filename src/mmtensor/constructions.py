"""Builtin tensors and groups, the correction term and the rank-23 assembly.

The assembly follows the chain: start from Strassen's seven terms, sandwich
into the Winograd variant, lift it into the lower-right 2x2 block of a 3x3
tensor, sum its orbit under a Klein four-group of permutation isotropies, and
repair the result with a correction term so the whole thing computes 3x3
multiplication with 23 rank-one terms after merging shared factors.  The
correction is read from the group's MonomialOrbitPartition: one weight per
orbit, summed over the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product

from .isotropy import (Isotropy, IsotropyGroup, MonomialOrbitPartition, act,
                       monomial_partition, orbit_partition_sum, orbit_sum)
from .matrix import Matrix, as_fraction, parse_int
from .tensor import (MAX_CLASSICAL_SIZE, RankOneTerm, Tensor, combine,
                     merge_shared_factors, monomial_term)
from .transforms import tensor_lift
from .trilinear import parse_trilinear


def classical(n: int) -> Tensor:
    """The n^3-term tensor of schoolbook n x n multiplication."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return Tensor(n, (monomial_term(n, i, j, k)
                      for i in range(1, n + 1)
                      for j in range(1, n + 1)
                      for k in range(1, n + 1)))


@lru_cache(maxsize=1)
def strassen() -> Tensor:
    """Strassen's seven-term 2x2 multiplication tensor."""
    T = lambda a, b, c: RankOneTerm(Matrix(a), Matrix(b), Matrix(c))
    return Tensor(2, [
        T([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
        T([[0, 1], [0, -1]], [[0, 0], [1, 1]], [[1, 0], [0, 0]]),
        T([[-1, 0], [1, 0]], [[1, 1], [0, 0]], [[0, 0], [0, 1]]),
        T([[1, 1], [0, 0]], [[0, 0], [0, 1]], [[-1, 0], [1, 0]]),
        T([[1, 0], [0, 0]], [[0, 1], [0, -1]], [[0, 0], [1, 1]]),
        T([[0, 0], [0, 1]], [[-1, 0], [1, 0]], [[1, 1], [0, 0]]),
        T([[0, 0], [1, 1]], [[1, 0], [0, 0]], [[0, 1], [0, -1]]),
    ])


def winograd_isotropy(lam=1) -> Isotropy:
    """The sandwiching triple turning Strassen into the Winograd variant."""
    lam = as_fraction(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return Isotropy(
        Matrix([[0, 1 / lam], [-1, 0]]),
        Matrix([[1 / lam, -1 / lam], [0, 1]]),
        Matrix([[-1 / lam, 0], [1, -1]]),
    )


def winograd(lam=1) -> Tensor:
    """The Winograd variant of Strassen's algorithm, parameterized by lambda."""
    return act(winograd_isotropy(lam), strassen())


def lifted_winograd(lam=1) -> Tensor:
    """Winograd's 2x2 tensor embedded in the lower-right block of a 3x3 one."""
    return tensor_lift(winograd(lam), (1, 1, 1))


@lru_cache(maxsize=1)
def laderman() -> Tensor:
    """Laderman's 23-term 3x3 multiplication tensor, parsed from its form."""
    text = (resources.files("mmtensor") / "data" / "laderman.txt").read_text()
    return parse_trilinear(text)


@lru_cache(maxsize=1)
def klein_group() -> IsotropyGroup:
    """Four permutation isotropies isomorphic to the Klein four-group."""
    e = Matrix.identity(3)
    p = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    return IsotropyGroup([
        Isotropy(e, e, e),
        Isotropy(e, p, p),
        Isotropy(p, p, e),
        Isotropy(p, e, p),
    ])


def klein_orbit_sum_winograd(lam=1) -> Tensor:
    """Klein orbit sum of the lifted Winograd tensor, merged to 19 terms.

    Not a multiplication tensor; it is the bulk of the rank-23 assembly.
    """
    raw = orbit_sum(klein_group(), lifted_winograd(lam))
    return merge_shared_factors(raw)


@dataclass(frozen=True)
class CorrectionResult:
    """Correction tensor R, its weight on the corner group sum
    GroupSum(n,n,n), one corner term per group element, and the corner
    term's total weight in R."""

    tensor: Tensor
    corner_coefficient: Fraction
    corner_total_weight: Fraction


def correction_term(partition: MonomialOrbitPartition) -> CorrectionResult:
    """The correction tensor R of the orbit decomposition identity

        classical(n) = GroupSum(1,1,1) + sum over m in {2..n}^3 of GroupSum(m)
                       - R

    where n = partition.dim and GroupSum(m) is the sum of g(term of m) over
    the group the partition stands for.  A triple of signed permutations
    sends the term of m to exactly the term of its image (the three factor
    signs multiply to +1), so GroupSum(m) is stab(m) times the sum of the
    terms over m's orbit O, and the identity is counting: each monomial m
    is met stab * |O & summed| times on the right, where
    summed = {(1,1,1)} | {2..n}^3, and once on the left.  So R is the
    partition sum with weight c(O) = |O & summed| - 1/stab on GroupSum(O):
    one monomial term per monomial, with the integer weight c * stab.  The
    corner numbers are (c, c * stab) at the orbit of (n,n,n).
    """
    n = partition.dim
    rest = range(2, n + 1)
    summed = {(1, 1, 1), *product(rest, rest, rest)}

    def weight(orbit, stab):  # |O & summed| - 1/stab
        return Fraction(stab * len(orbit & summed) - 1, stab)

    corner, stab = partition.orbit_of((n, n, n))
    c = weight(corner, stab)
    r = orbit_partition_sum(partition, (weight(*o) for o in partition.orbits))
    return CorrectionResult(r, c, c * stab)


def cyclic_partition() -> MonomialOrbitPartition:
    """Orbit data of an order-4 cyclic stabilizer whose generator is not a
    sandwiching; only the partition is known, not the group elements."""
    data = [
        ({(1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 1, 2)}, 1),
        ({(2, 2, 2), (2, 1, 1), (1, 1, 2), (1, 2, 1)}, 1),
        ({(2, 2, 3), (2, 1, 3), (1, 1, 3), (1, 2, 3)}, 1),
        ({(3, 2, 2), (3, 1, 2), (2, 3, 1), (1, 3, 1)}, 1),
        ({(2, 3, 2), (3, 1, 1), (1, 3, 2), (3, 2, 1)}, 1),
        ({(3, 2, 3), (3, 1, 3), (2, 3, 3), (1, 3, 3)}, 1),
        ({(3, 3, 2), (3, 3, 1)}, 2),
        ({(3, 3, 3)}, 4),
    ]
    return MonomialOrbitPartition(4, tuple((frozenset(o), s) for o, s in data))


def laderman_variant(lam=1) -> Tensor:
    """A 23-term 3x3 multiplication tensor of Laderman's type.

    Assembled as KleinSum(e11 term) + KleinSum(lifted Winograd(lambda))
    - correction term, then merged.  lambda = 0 raises ValueError.
    """
    group = klein_group()
    n = group.dim
    base = orbit_sum(group, Tensor(n, [monomial_term(n, 1, 1, 1)]))
    bulk = orbit_sum(group, lifted_winograd(lam))
    corr = correction_term(monomial_partition(group)).tensor
    total = combine(combine(base, 1, bulk, 1), 1, corr, -1)
    return merge_shared_factors(total)


def builtin(name: str, lam=1) -> Tensor:
    """Look up a builtin tensor by CLI-style name, e.g. 'classical-3'.
    KeyError for an unknown name; ValueError for classical-N with N outside
    1..MAX_CLASSICAL_SIZE."""
    digits = name.removeprefix("classical-")
    if digits != name and digits[:1].isdigit():  # N in a name has no sign
        try:
            n = parse_int(digits)
        except ValueError:
            raise KeyError(f"unknown builtin tensor: {name}") from None
        if not 1 <= n <= MAX_CLASSICAL_SIZE:
            raise ValueError(f"builtin tensor {name}: N must lie in "
                             f"1..{MAX_CLASSICAL_SIZE}")
        return classical(n)
    table = {
        "strassen": strassen,
        "winograd": lambda: winograd(lam),
        "laderman": laderman,
        "lifted-winograd": lambda: lifted_winograd(lam),
        "klein-orbit-sum": lambda: klein_orbit_sum_winograd(lam),
        "laderman-variant": lambda: laderman_variant(lam),
    }
    if name not in table:
        raise KeyError(f"unknown builtin tensor: {name}")
    return table[name]()
