"""Builtin tensors and groups, the correction term and the rank-23 assembly.

The assembly follows the chain: start from Strassen's seven terms, sandwich
into the Winograd variant, lift it into the lower-right 2x2 block of a 3x3
tensor, sum its orbit under a Klein four-group of permutation isotropies, and
repair the result with a correction term so the whole thing computes 3x3
multiplication with 23 rank-one terms after merging shared factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from itertools import product

from .isotropy import (Isotropy, IsotropyGroup, MonomialOrbitPartition, act,
                       orbit_sum)
from .matrix import Matrix, as_fraction, parse_int
from .tensor import (MAX_CLASSICAL_SIZE, RankOneTerm, Tensor, combine,
                     merge_shared_factors, monomial_term, to_coefficient_form)
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


# Correction-term shapes: base monomials with fixed weights, None marking the
# corner coefficient that is solved for.
KLEIN_CORRECTION_SHAPE = (
    ((2, 3, 3), Fraction(1, 2)),
    ((3, 3, 2), Fraction(1, 2)),
    ((3, 2, 3), Fraction(1, 2)),
    ((3, 3, 3), None),
)

CYCLIC_CORRECTION_SHAPE = (
    ((3, 3, 2), Fraction(1, 2)),
    ((3, 3, 3), None),
    ((3, 2, 3), Fraction(1)),
)

@dataclass(frozen=True)
class CorrectionResult:
    """Correction tensor plus the solved corner coefficient.

    corner_coefficient multiplies the plain sum over group elements (the
    corner term appears once per element); corner_total_weight is the
    resulting total multiplicity of the corner rank-one term, i.e. the value
    under the one-copy-per-orbit-member convention.
    """

    tensor: Tensor
    corner_coefficient: Fraction
    corner_total_weight: Fraction


def correction_term(source, shape=KLEIN_CORRECTION_SHAPE) -> CorrectionResult:
    """Solve for the correction tensor R of the orbit decomposition identity

        classical(n) = GroupSum(1,1,1) + sum over m in {2..n}^3 of GroupSum(m)
                       - R

    where n = source.dim and GroupSum(m) is the sum of g(monomial_term(m))
    over the group.  The monomials over 2..n are the classical tensor zeroed
    at (1,1,1), so the sum over them is that tensor's group sum.  R is
    constrained to the given shape: fixed weights on all base monomials
    except the corner (n,n,n), whose coefficient is derived from the
    identity and verified against it in full.

    source is an IsotropyGroup acting monomially, or a
    MonomialOrbitPartition standing in for a group given by orbit data only.
    """
    n = source.dim
    unknowns = [m for m, c in shape if c is None]
    if unknowns != [(n, n, n)]:
        raise ValueError(f"shape must leave exactly the corner ({n},{n},{n}) "
                         "open")
    corner = ((n, n), (n, n), (n, n))
    group_sum = cache(source.group_sum)

    known_terms = []
    for m, c in shape:
        if c is not None:
            known_terms.extend(tm.scaled(c) for tm in group_sum(m).terms)

    # What the corner group sum must supply: both group sums of the
    # identity, minus classical(n) and the known part of R.
    rest = range(2, n + 1)
    residual_terms = [tm for m in [(1, 1, 1), *product(rest, rest, rest)]
                      for tm in group_sum(m).terms]
    residual_terms.extend(tm.scaled(-1)
                          for tm in [*classical(n).terms, *known_terms])
    residual = to_coefficient_form(Tensor(n, residual_terms))
    corner_gsum = group_sum((n, n, n))
    corner_form = to_coefficient_form(corner_gsum)
    if corner not in corner_form:
        raise ValueError("corner group sum vanishes; cannot solve")
    c_fix = residual.get(corner, Fraction(0)) / corner_form[corner]
    corner_terms = [tm.scaled(c_fix) for tm in corner_gsum.terms]
    if residual != to_coefficient_form(Tensor(n, corner_terms)):
        raise ValueError("no coefficient assignment of this shape satisfies "
                         "the decomposition identity")

    tensor = Tensor(n, known_terms + corner_terms)
    return CorrectionResult(tensor=tensor, corner_coefficient=c_fix,
                            corner_total_weight=c_fix * corner_form[corner])


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
    base = group.group_sum((1, 1, 1))
    bulk = orbit_sum(group, lifted_winograd(lam))
    corr = correction_term(group).tensor
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
