"""Rank-one decompositions of trilinear forms and their canonical form.

A tensor is an ordered sum of rank-one terms T_a (x) T_b (x) T_c of square
matrices of a common dimension.  The canonical form is the expansion: the
coefficient table of the associated trilinear form as ints over one
denominator, in lowest terms, so two tensors are equal as trilinear forms
iff their expansions are equal.  Every check compares expansions, the one
Brent check brent_failures too; the Fraction table is only read out of one.
The expansion and merge_shared_factors, which collapses terms sharing two
factors up to scale, read each factor m as its flat factor (m.den, m.num).
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from .matrix import (Matrix, Rational, as_fraction, flat_projective_key,
                     projective_key)

# Readout of the expansion: {((i,j),(k,l),(m,n)): Fraction}, zeros absent.
CoefficientForm = dict[tuple[tuple[int, int], tuple[int, int], tuple[int, int]],
                       Fraction]

# Type of a decomposition: multiset of per-term factor-rank triples.
TensorType = Counter

# Largest N of builtin:classical-N and of a tensor file's dim: census makes
# N**3 projections, and classical-N takes memory growing as N**5.
MAX_CLASSICAL_SIZE = 16


@dataclass(frozen=True)
class RankOneTerm:
    """One summand T_a (x) T_b (x) T_c; all factors square of equal size."""

    a: Matrix
    b: Matrix
    c: Matrix

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not a.rows == a.cols == b.rows == b.cols == c.rows == c.cols:
            raise ValueError("rank-one term factors must be square, same size")

    @property
    def dim(self) -> int:
        return self.a.rows

    def is_zero(self) -> bool:
        return self.a.is_zero() or self.b.is_zero() or self.c.is_zero()

    def scaled(self, s: Rational) -> "RankOneTerm":
        return RankOneTerm(self.a.scale(s), self.b, self.c)

    def key(self) -> tuple:
        """The projective keys of a and b and (den, num) of c times their
        leads: equal keys iff equal rank-one tensors, as under (a, b, c) ~
        (alpha a, beta b, c/(alpha beta)).  ValueError for a zero term."""
        if self.is_zero():
            raise ValueError("a zero term has no key")
        a, b, c = self.a, self.b, self.c
        lead = _first(a.num) * _first(b.num)
        c = Matrix.from_ints(c.den * a.den * b.den, c.cols,
                             [v * lead for v in c.num])
        return projective_key(a), projective_key(b), (c.den, c.num)


@dataclass(frozen=True, slots=True)
class Tensor:
    """Dimension n plus an ordered collection of rank-one terms."""

    dim: int
    terms: tuple[RankOneTerm, ...] = ()

    def __post_init__(self):
        terms = tuple(self.terms)
        if self.dim < 1:
            raise ValueError("tensor dimension must be >= 1")
        if any(t.dim != self.dim for t in terms):
            raise ValueError("term dimension mismatch")
        object.__setattr__(self, "terms", terms)

    def nonzero_terms(self) -> tuple[RankOneTerm, ...]:
        return tuple(t for t in self.terms if not t.is_zero())

    def __repr__(self) -> str:
        return f"Tensor(dim={self.dim}, terms={len(self.terms)})"


def term(a, b, c) -> RankOneTerm:
    """Build a rank-one term from matrices or row-lists."""
    mk = lambda m: m if isinstance(m, Matrix) else Matrix(m)
    return RankOneTerm(mk(a), mk(b), mk(c))


def monomial_term(n: int, i: int, j: int, k: int) -> RankOneTerm:
    """The rank-one term e^i_j (x) e^j_k (x) e^k_i of the monomial a_ij b_jk c_ki."""
    return RankOneTerm(Matrix.unit(n, i, j), Matrix.unit(n, j, k),
                       Matrix.unit(n, k, i))


def monomial_key(n: int, i: int, j: int, k: int) -> int:
    """The expansion key of the monomial a_ij b_jk c_ki of dimension n."""
    fa, fb, fc = (i - 1) * n + j - 1, (j - 1) * n + k - 1, (k - 1) * n + i - 1
    return (fa * n * n + fb) * n * n + fc


def map_factors(t: Tensor, op, idx, dim: int) -> Tensor:
    """The tensor of op(a, i, j) (x) op(b, j, k) (x) op(c, k, i) over the
    terms of t, for idx = (i, j, k): the cyclic pattern of a monomial."""
    i, j, k = idx
    return Tensor(dim, (RankOneTerm(op(tm.a, i, j), op(tm.b, j, k),
                                    op(tm.c, k, i))
                        for tm in t.terms))


# -- operations ----------------------------------------------------------------

def expansion(t: Tensor) -> tuple[int, dict[int, int]]:
    """(D, sums): the coefficient table of t times D, keyed by flat ints,
    in lowest terms, so two tensors have equal trilinear forms iff their
    expansions are equal.

    A factor is num / den, its entry (i, j) at flat index (i-1) n + (j-1);
    the product of nonzero num entries of a, b, c at fa, fb, fc is keyed
    fa n^4 + fb n^2 + fc.  Terms with a zero factor are skipped.  A term's
    products are weighted by L // (da db dc), L the lcm of da db dc over
    the terms, and summed; sums that cancel are dropped, and L and the
    sums are divided by their gcd to give D and the sums.  The sums are
    accumulated one product at a time, or Kronecker-packed for dense
    input (_packs)."""
    n2 = t.dim ** 2
    big_d, cleared = _cleared(t)
    sums = (_packed_sums(big_d, cleared, n2) if _packs(cleared, n2)
            else _direct_sums(big_d, cleared))
    g = gcd(big_d, *sums.values())
    return big_d // g, {key: v // g for key, v in sums.items() if v}


def _cleared(t: Tensor):
    """(L, cleared): cleared holds (da db dc, a, b, c) per term with no
    zero factor, each factor as its (weighted flat index, num) pairs of
    nonzero entries, a's indices times n^4 and b's times n^2."""
    n2 = t.dim ** 2
    cleared, big_d = [], 1
    for tm in t.terms:
        a, b, c = ([(f * w, v) for f, v in enumerate(m.num) if v]
                   for m, w in ((tm.a, n2 * n2), (tm.b, n2), (tm.c, 1)))
        if a and b and c:
            d = tm.a.den * tm.b.den * tm.c.den
            big_d = lcm(big_d, d)
            cleared.append((d, a, b, c))
    return big_d, cleared


def _packs(cleared, n2: int) -> bool:
    """True when packing costs fewer steps than the direct loop: one
    multiply-add per (a, b) entry pair, one pack per c entry and one
    unpack per lane of each (a, b) accumulator, against one dict update
    per (a, b, c) entry triple."""
    ab = sum(len(a) * len(b) for _, a, b, _ in cleared)
    packed = ab + sum(len(c) for *_, c in cleared) + n2 * min(ab, n2 * n2)
    return packed < sum(len(a) * len(b) * len(c) for _, a, b, c in cleared)


def _direct_sums(big_d: int, cleared) -> dict[int, int]:
    """The sums of _cleared's products times L, one dict update per
    product; zero sums are kept."""
    sums = {}
    for d, a, b, c in cleared:
        w = big_d // d
        for ka, va in a:
            wa = w * va
            for kb, vb in b:
                kab, wab = ka + kb, wa * vb
                for kc, vc in c:
                    key = kab + kc
                    sums[key] = sums.get(key, 0) + wab * vc
    return sums


def lane_bits(bound: int) -> int:
    """The Kronecker lane width: the least multiple s of 64 with
    2^(s-1) > bound, so a lane of s bits holds every int of magnitude at
    most bound in two's complement, in whole 64-bit words."""
    return 64 * ((bound.bit_length() + 64) // 64)


def signed_lanes(values, count: int, s: int) -> list[int]:
    """The lanes of the ints in values, a list or dict values, lowest lane
    first, value after value: each value is the sum of v_k 2^(s k) over
    count lanes v_k of s bits (a multiple of 64), each v_k in
    [-2^(s-1), 2^(s-1)).  Adding 2^(s-1) to every lane makes each lane
    nonnegative and below 2^s, and flipping its top bit then leaves v_k in
    two's complement, so the values' little-endian bytes are the lanes'."""
    tops = sum(1 << s * k + s - 1 for k in range(count))
    data = bytearray()
    for v in values:
        data += ((v + tops) ^ tops).to_bytes(count * s // 8, "little")
    if s == 64:
        return list(struct.unpack(f"<{len(data) // 8}q", data))
    view, w = memoryview(data), s // 8
    return [int.from_bytes(view[i:i + w], "little", signed=True)
            for i in range(0, len(data), w)]


def _packed_sums(big_d: int, cleared, n2: int) -> dict[int, int]:
    """_direct_sums without its zero sums, by Kronecker substitution.

    Each term's c is packed into one int with n^2 signed lanes of s bits,
    c's entry at lane fc, and added, times w va vb, to the accumulator of
    each (a, b) entry pair.  A lane sums one product per term, so no lane
    or partial sum passes B = sum of w max|a| max|b| max|c| over the
    terms; s is lane_bits(B), and signed_lanes reads the lanes back."""
    bound = sum(big_d // d * max(abs(v) for _, v in a)
                * max(abs(v) for _, v in b) * max(abs(v) for _, v in c)
                for d, a, b, c in cleared)
    s = lane_bits(bound)
    accs = {}
    for d, a, b, c in cleared:
        w = big_d // d
        packed = sum(vc << s * kc for kc, vc in c)
        for ka, va in a:
            wa = w * va
            for kb, vb in b:
                kab = ka + kb
                accs[kab] = accs.get(kab, 0) + wa * vb * packed
    keys = (kab + fc for kab in accs for fc in range(n2))
    return {key: v for key, v in
            zip(keys, signed_lanes(accs.values(), n2, s)) if v}


def _decoder(n: int):
    """The function from a flat expansion key of dimension n to its index
    pairs ((i,j),(k,l),(m,n))."""
    n2, pos = n * n, list(product(range(1, n + 1), repeat=2))
    return lambda key: (pos[key // n2 // n2], pos[key // n2 % n2],
                        pos[key % n2])


def to_coefficient_form(t: Tensor) -> CoefficientForm:
    """The sparse 6-index coefficient table, read out of the expansion:
    its flat keys split back into index pairs, each sum divided by D."""
    big_d, sums = expansion(t)
    decode = _decoder(t.dim)
    return {decode(key): Fraction(v, big_d) for key, v in sums.items()}


def brent_failures(t: Tensor) -> list:
    """The Brent equations t breaks, sorted: the index pairs ((i,j),(k,l),
    (m,n)) of each coefficient of a_ij b_kl c_mn where the expansion (D,
    sums) is not D on a monomial a_ij b_jk c_ki (missing counts) or not 0
    elsewhere; in lowest terms, so empty iff t is a multiplication tensor."""
    n = t.dim
    big_d, sums = expansion(t)
    want = dict.fromkeys((monomial_key(n, *m) for m in
                          product(range(1, n + 1), repeat=3)), big_d)
    decode = _decoder(n)
    return sorted(decode(key) for key in sums.keys() | want.keys()
                  if sums.get(key, 0) != want.get(key, 0))


def is_matmul_tensor(t: Tensor) -> bool:
    """True iff t computes n x n matrix multiplication: no Brent failure."""
    return not brent_failures(t)


def decomposition_length(t: Tensor) -> int:
    """Number of terms whose three factors are all nonzero."""
    return len(t.nonzero_terms())


def tensor_type(t: Tensor) -> TensorType:
    """Multiset of (rank a, rank b, rank c) over the nonzero terms."""
    return Counter((tm.a.rank(), tm.b.rank(), tm.c.rank())
                   for tm in t.nonzero_terms())


def format_type(tt: TensorType) -> str:
    """Render a type multiset as e.g. '(2,2,2)x4 (1,1,1)x13', largest first."""
    items = sorted(tt.items(), key=lambda kv: (kv[0], kv[1]), reverse=True)
    return " ".join(f"({r[0]},{r[1]},{r[2]})x{c}" for r, c in items)


def combine(t1: Tensor, s1: Rational, t2: Tensor, s2: Rational) -> Tensor:
    """Linear combination s1*t1 + s2*t2 by term concatenation.

    Scalars are folded into the a factors; a zero scalar drops that operand's
    terms entirely.
    """
    if t1.dim != t2.dim:
        raise ValueError("tensor dimension mismatch")
    s1, s2 = as_fraction(s1), as_fraction(s2)
    terms = []
    if s1:
        terms.extend(tm if s1 == 1 else tm.scaled(s1) for tm in t1.terms)
    if s2:
        terms.extend(tm if s2 == 1 else tm.scaled(s2) for tm in t2.terms)
    return Tensor(t1.dim, terms)


# Factor pairs (a,b), (a,c), (b,c), in the order a merge tries them.
_PAIRS = ((0, 1), (0, 2), (1, 2))


def merge_shared_factors(t: Tensor) -> Tensor:
    """Greedily merge terms sharing two factors up to scale.

    When u = (alpha v_a) (x) (beta v_b) (x) u_c shares its a and b factors
    with v (and likewise for the other two factor pairs), the pair collapses
    to a single rank-one term with the third factors combined linearly.  The
    coefficient form is unchanged; zero terms (including full cancellations)
    are dropped.  Runs to a fixed point in deterministic order: each step
    merges the lexicographically first mergeable pair of positions i < j
    into position i, trying the pairs (a,b), (a,c), (b,c) in that order.

    The merge runs on the flat factors (m.den, m.num), each classed once by
    one classifier(): a term no merge rebuilds is returned as it is, and a
    rebuilt factor is one Matrix.from_ints of its folded (den, num).
    """
    n = t.dim
    terms = t.nonzero_terms()
    classify = classifier()
    slots = [tuple(classify((m.den, m.num)) for m in (tm.a, tm.b, tm.c))
             for tm in terms]
    live = merge_keyed_terms(slots, classify)
    return Tensor(n, [terms[s] if fs is slots[s] else RankOneTerm(*(
        Matrix.from_ints(den, n, num) for (den, num), _ in fs))
        for s, fs in live.items()])


def classifier():
    """classify(f) -> (f, class number) for a flat factor f = (den,
    row-major ints) of a square matrix, (m.den, m.num) or a census cut, in
    lowest terms or not.  Two factors get one class number iff their
    matrices are proportional (or both zero): the numbers count the
    distinct flat_projective_key keys met so far, and each distinct f is
    keyed once."""
    units, memo = {}, {}  # memo: f -> (f, class number in units)

    def classify(f):
        if (hit := memo.get(f)) is None:
            k = isqrt(len(f[1]))
            hit = memo[f] = f, units.setdefault(
                flat_projective_key(k, k, f[1]), len(units))
        return hit
    return classify


def merge_keyed_terms(slots, classify) -> dict:
    """The merge of merge_shared_factors over slots 0, 1, ... of a list of
    nonzero terms, each slot the triple of classify results, (flat
    factor, class number), of its a, b and c.  Returns {slot: triple}
    over the surviving slots, in slot order: the slot's own triple, or
    the triple a merge rebuilt there.

    A fold is int arithmetic on the flat factors, and only the factor it
    rebuilds, in lowest terms, goes through classify; the two shared
    factors keep their classes.  Each factor pair gets the key (pair,
    class number, class number), all ints.  Two terms merge iff they
    share a pair key, so a step scans the live slots in order and merges
    the least (first slot, later slot) pair met under one key.  There is
    no second index: a heap of least pairs costs more to build than the
    one scan in a list with no shared key, which most census projections
    are.
    """
    pair_keys = list(map(_pair_keys, slots))
    live = dict(enumerate(slots))
    while True:
        first = {}  # pair key -> first live slot holding it
        least = min(((i, j) for j, slot in enumerate(pair_keys) for k in slot
                     if (i := first.setdefault(k, j)) < j), default=None)
        if least is None:
            return live
        i, j = least
        z, w = _merge_pair(live[i], live[j])
        new = list(live.pop(j))
        pair_keys[j] = ()
        if not any(w[1]):
            del live[i]
            pair_keys[i] = ()
        else:
            new[z] = classify(w)
            live[i] = tuple(new)
            pair_keys[i] = _pair_keys(new)


def _pair_keys(slot) -> tuple[tuple[int, int, int], ...]:
    """The keys (pair, class number, class number) of the factor pairs
    (a,b), (a,c), (b,c) of a triple of classify results."""
    (_, a), (_, b), (_, c) = slot
    return (0, a, b), (1, a, c), (2, b, c)


def _merge_pair(u, v):
    """(z, w): fold u into v, triples of classify results, along the first
    factor pair (x, y) whose classes agree, w = u_z (lead(u_x) / lead(v_x))
    (lead(u_y) / lead(v_y)) + v_z as (den, entries) in lowest terms,
    den > 0, each lead the first nonzero entry over its den."""
    x, y = next((x, y) for x, y in _PAIRS
                if u[x][1] == v[x][1] and u[y][1] == v[y][1])
    z = 3 - x - y
    (dux, ux), (duy, uy), (duz, uz) = u[x][0], u[y][0], u[z][0]
    (dvx, vx), (dvy, vy), (dvz, vz) = v[x][0], v[y][0], v[z][0]
    p = _first(ux) * dvx * _first(uy) * dvy * dvz
    q = dux * _first(vx) * duy * _first(vy) * duz
    num = [a * p + b * q for a, b in zip(uz, vz)]
    den = q * dvz
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    return z, (den // g, tuple(a // g for a in num))


def _first(flat) -> int:
    """The first nonzero int of flat."""
    return next(filter(None, flat))


def form_equal(t1: Tensor, t2: Tensor) -> bool:
    """Equality of the associated trilinear forms."""
    if t1.dim != t2.dim:
        raise ValueError("tensor dimension mismatch")
    return expansion(t1) == expansion(t2)


def contract12(t: Tensor, a: Matrix, b: Matrix) -> Matrix:
    """Sum of trace(Ta^T A) trace(Tb^T B) Tc over the terms, the (1,2)
    contraction.  With the trace pairing used throughout, a verified
    multiplication tensor yields the transposed product: the result D
    satisfies D^T == A.B."""
    if not (a.rows == a.cols == b.rows == b.cols == t.dim):
        raise ValueError("contract12 expects square matrices of the tensor "
                         "dimension")
    return sum((tm.c.scale(tm.a.trace_pair(a) * tm.b.trace_pair(b))
                for tm in t.terms), Matrix.zeros(t.dim))


def full_contraction(t: Tensor, a: Matrix, b: Matrix, c: Matrix) -> Fraction:
    """Trace pairing <T | A (x) B (x) C>, the value of the trilinear form:
    the trace pairing of contract12(t, A, B) with C."""
    return contract12(t, a, b).trace_pair(c)
