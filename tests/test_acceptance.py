"""End-to-end acceptance checks, one per shipped guarantee.

Every check is exact (rational arithmetic, zero tolerance) and prints a
single pass/fail line so the suite output doubles as a report.
"""

import random
from fractions import Fraction
from itertools import product

import mmtensor as mm
from mmtensor import Matrix, Tensor

from conftest import canonical_terms, rand_matrix


def _report(number, description, checker):
    try:
        checker()
    except AssertionError:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


# The seven-product 2x2 schedule in its textbook presentation.
STRASSEN_PRODUCT_LINES = [
    "p1 = (a11 + a22) * (b11 + b22)",
    "p2 = (a12 - a22) * (b21 + b22)",
    "p3 = (-a11 + a21) * (b11 + b12)",
    "p4 = (a11 + a12) * (b22)",
    "p5 = (a11) * (b12 - b22)",
    "p6 = (a22) * (-b11 + b21)",
    "p7 = (a21 + a22) * (b11)",
]

LADERMAN_TYPE = {(2, 2, 2): 4, (1, 3, 1): 2, (3, 1, 1): 2, (1, 1, 3): 2,
                 (1, 1, 1): 13}


def _winograd_reference_terms(lam):
    """The published seven terms of the lambda-parameterized Winograd form."""
    l, il = lam, 1 / lam
    T = lambda a, b, c: mm.term(a, b, c)
    return [
        T([[-1, l], [-il, 0]], [[1, -l], [il, 0]], [[1, -l], [il, 0]]),
        T([[-1, l], [-il, 1]], [[0, 0], [1, 0]], [[0, 1], [0, 0]]),
        T([[1, 0], [il, 0]], [[1, 0], [il, 0]], [[1, 0], [il, 0]]),
        T([[0, 0], [0, 1]], [[0, 0], [0, 1]], [[0, 0], [0, 1]]),
        T([[0, 0], [1, 0]], [[0, 1], [0, 0]], [[-1, l], [-il, 1]]),
        T([[1, -l], [0, 0]], [[1, -l], [0, 0]], [[1, -l], [0, 0]]),
        T([[0, 1], [0, 0]], [[-1, l], [-il, 1]], [[0, 0], [1, 0]]),
    ]


# Per-element trilinear texts of the Klein orbit of the lifted Winograd
# tensor (identity, then the three non-identity elements).
KLEIN_ORBIT_ELEMENT_TEXTS = [
    """(-a22 - 1/L*a32 + L*a23)*(b22 + 1/L*b32 - L*b23)*(c22 + 1/L*c32 - L*c23)
    + (a22 - L*a23)*(b22 - L*b23)*(c22 - L*c23)
    + (a22 + 1/L*a32)*(b22 + 1/L*b32)*(c22 + 1/L*c32)
    + a23*(-b22 - 1/L*b32 + L*b23 + b33)*c32
    + (-a22 - 1/L*a32 + L*a23 + a33)*b32*c23
    + a32*b23*(-c22 - 1/L*c32 + L*c23 + c33)
    + a33*b33*c33""",
    """(-a21 - 1/L*a31 + L*a23)*(b11 + 1/L*b31 - L*b13)*(c12 + 1/L*c32 - L*c13)
    + (a21 - L*a23)*(b11 - L*b13)*(c12 - L*c13)
    + (a21 + 1/L*a31)*(b11 + 1/L*b31)*(c12 + 1/L*c32)
    + a23*(-b11 - 1/L*b31 + L*b13 + b33)*c32
    + (-a21 - 1/L*a31 + L*a23 + a33)*b31*c13
    + a31*b13*(-c12 - 1/L*c32 + L*c13 + c33)
    + a33*b33*c33""",
    """(-a11 - 1/L*a31 + L*a13)*(b12 + 1/L*b32 - L*b13)*(c21 + 1/L*c31 - L*c23)
    + (a11 - L*a13)*(b12 - L*b13)*(c21 - L*c23)
    + (a11 + 1/L*a31)*(b12 + 1/L*b32)*(c21 + 1/L*c31)
    + a13*(-b12 - 1/L*b32 + L*b13 + b33)*c31
    + (-a11 - 1/L*a31 + L*a13 + a33)*b32*c23
    + a31*b13*(-c21 - 1/L*c31 + L*c23 + c33)
    + a33*b33*c33""",
    """(-a12 - 1/L*a32 + L*a13)*(b21 + 1/L*b31 - L*b23)*(c11 + 1/L*c31 - L*c13)
    + (a12 - L*a13)*(b21 - L*b23)*(c11 - L*c13)
    + (a12 + 1/L*a32)*(b21 + 1/L*b31)*(c11 + 1/L*c31)
    + a13*(-b21 - 1/L*b31 + L*b23 + b33)*c31
    + (-a12 - 1/L*a32 + L*a13 + a33)*b31*c13
    + a32*b23*(-c11 - 1/L*c31 + L*c13 + c33)
    + a33*b33*c33""",
]

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


def test_criterion_01_strassen():
    def check():
        t = mm.strassen()
        assert mm.is_matmul_tensor(t)
        assert mm.decomposition_length(t) == 7
        text = mm.emit_code(mm.extract_schedule(t))
        got = [ln for ln in text.splitlines() if ln.startswith("p")]
        assert got == STRASSEN_PRODUCT_LINES
    _report(1, "Strassen verifies with 7 products in the textbook shape",
            check)


def test_criterion_02_classical():
    def check():
        for n in range(1, 5):
            t = mm.classical(n)
            assert mm.is_matmul_tensor(t)
            assert mm.decomposition_length(t) == n ** 3
    _report(2, "schoolbook tensors verify for n=1..4 with n^3 terms", check)


def test_criterion_03_winograd_variant():
    def check():
        base_type = mm.tensor_type(mm.strassen())
        for lam in (1, 2, -3, Fraction(5, 7)):
            lam = Fraction(lam)
            acted = mm.act(mm.winograd_isotropy(lam), mm.strassen())
            ref = Tensor(2, _winograd_reference_terms(lam))
            assert canonical_terms(acted) == canonical_terms(ref)
            assert mm.tensor_type(acted) == base_type
    _report(3, "the sandwiched Strassen equals the published Winograd "
               "terms for four lambda values, type preserved", check)


def test_criterion_04_laderman():
    def check():
        t = mm.laderman()
        assert t.dim == 3 and mm.is_matmul_tensor(t)
        assert mm.decomposition_length(t) == 23
        assert dict(mm.tensor_type(t)) == LADERMAN_TYPE
    _report(4, "the parsed 23-term 3x3 tensor verifies with the published "
               "type", check)


def test_criterion_05_projection_census():
    def check():
        optimal = {(2, 1, 3), (2, 3, 2), (3, 1, 2), (3, 3, 3)}
        lad = mm.laderman()
        for idx in product(range(1, 4), repeat=3):
            p = mm.merge_shared_factors(mm.tensor_project(lad, idx))
            assert mm.is_matmul_tensor(p)
            assert mm.decomposition_length(p) == \
                (7 if idx in optimal else 8), idx
    _report(5, "projection census: exactly four 7-term projections, "
               "twenty-three 8-term ones, all verified", check)


def test_criterion_06_averaging_and_compatibility():
    def check():
        for t in (mm.classical(2), mm.classical(3), mm.strassen()):
            s = mm.zeroing_family_sum(t)
            assert mm.form_equal(s, mm.combine(t, (t.dim - 1) ** 3, t, 0))
        rng = random.Random(7)
        lad = mm.laderman()
        a, b, c = (rand_matrix(rng, 3) for _ in range(3))
        for i, j, k in product(range(1, 4), repeat=3):
            lhs = mm.full_contraction(lad, mm.matrix_zero(a, i, j),
                                      mm.matrix_zero(b, j, k),
                                      mm.matrix_zero(c, k, i))
            mid = mm.full_contraction(mm.tensor_zero(lad, (i, j, k)), a, b, c)
            rhs = mm.full_contraction(mm.tensor_project(lad, (i, j, k)),
                                      mm.matrix_project(a, i, j),
                                      mm.matrix_project(b, j, k),
                                      mm.matrix_project(c, k, i))
            assert lhs == mid == rhs
    _report(6, "averaging identity and zero/project contraction "
               "compatibility hold exactly", check)


def test_criterion_07_klein_orbits():
    def check():
        K = mm.klein_group()
        part = mm.monomial_partition(K)
        got = {(orbit, stab) for orbit, stab in part.orbits}
        assert got == {(frozenset(o), s) for o, s in KLEIN_ORBITS}
        assert mm.is_term_stabilizer(K, mm.classical(3))
    _report(7, "the four-group's monomial orbits match the published "
               "nine and it permutes the schoolbook terms", check)


def test_criterion_08_orbit_sum_and_merges():
    def check():
        s = mm.klein_orbit_sum_winograd(1)
        assert mm.decomposition_length(s) == 19
        assert not mm.is_matmul_tensor(s)
        for lam in (1, 2, Fraction(5, 7)):
            lw = mm.lifted_winograd(lam)
            for text, g in zip(KLEIN_ORBIT_ELEMENT_TEXTS, mm.klein_group()):
                parsed = mm.parse_trilinear(text, lam=lam)
                assert canonical_terms(mm.act(g, lw)) == \
                    canonical_terms(parsed)
            # the two matching blue terms add into one rank-one term
            u = mm.parse_trilinear(
                "a23*(-b22 - 1/L*b32 + L*b23 + b33)*c32", lam=lam)
            v = mm.parse_trilinear(
                "a23*(-b11 - 1/L*b31 + L*b13 + b33)*c32", lam=lam)
            merged = mm.merge_shared_factors(mm.combine(u, 1, v, 1))
            want = mm.parse_trilinear(
                "a23*(-b22 - 1/L*b32 + L*b23 + 2*b33"
                " - b11 - 1/L*b31 + L*b13)*c32", lam=lam)
            assert mm.decomposition_length(merged) == 1
            assert mm.form_equal(merged, want)
    _report(8, "orbit sum merges to 19 non-verifying terms; per-element "
               "contractions and the pairwise term merge match the "
               "published forms", check)


def test_criterion_09_correction_identity_klein():
    def check():
        K = mm.klein_group()
        res = mm.correction_term(mm.monomial_partition(K))
        assert res.corner_coefficient == Fraction(3, 4)
        # the published corner value 3 is the total weight, i.e. the
        # derived per-element coefficient times the corner stabilizer 4
        assert res.corner_total_weight == 3
        assert res.corner_coefficient * 4 == 3

        # independent solve: contract everything against unit matrices at
        # (3,3) so only the corner monomial survives
        e33 = Matrix.unit(3, 3, 3)
        def val(t):
            return mm.full_contraction(t, e33, e33, e33)
        gs = lambda m: mm.orbit_sum(K, Tensor(3, [mm.monomial_term(3, *m)]))
        # the paper's published weights: 1/2 on three group sums
        known = sum(Fraction(1, 2) * val(gs(m))
                    for m in [(2, 3, 3), (3, 3, 2), (3, 2, 3)])
        lhs = (val(gs((1, 1, 1)))
               + val(mm.orbit_sum(K, mm.tensor_zero(mm.classical(3),
                                                    (1, 1, 1))))
               - val(mm.classical(3)))
        solved = (lhs - known) / val(gs((3, 3, 3)))
        assert solved == res.corner_coefficient == Fraction(3, 4)

        # and the full decomposition identity holds with that coefficient
        full_lhs = mm.combine(
            gs((1, 1, 1)), 1,
            mm.orbit_sum(K, mm.tensor_zero(mm.classical(3), (1, 1, 1))), 1)
        full_rhs = mm.combine(mm.classical(3), 1, res.tensor, 1)
        assert mm.form_equal(full_lhs, full_rhs)
    _report(9, "group-sum decomposition identity holds with derived corner "
               "coefficient 3/4 (published 3 = 3/4 x stabilizer 4), "
               "confirmed by an independent solve", check)


def test_criterion_10_variant():
    def check():
        for lam in (1, 2, Fraction(5, 7)):
            v = mm.laderman_variant(lam)
            assert mm.decomposition_length(v) == 23
            assert mm.is_matmul_tensor(v)
            assert dict(mm.tensor_type(v)) == LADERMAN_TYPE
    _report(10, "the reconstructed 23-term variant verifies with the "
                "published type for three lambda values", check)


def test_criterion_11_cyclic_partition():
    def check():
        part = mm.cyclic_partition()
        assert all(len(orbit) * stab == 4 for orbit, stab in part.orbits)
        klein = mm.monomial_partition(mm.klein_group())
        assert part.orbit_of((2, 3, 3))[0] == \
            klein.orbit_of((2, 3, 3))[0] | klein.orbit_of((3, 2, 3))[0]
        assert (part.orbit_of((3, 2, 2))[0]
                | part.orbit_of((2, 3, 2))[0]) == \
            (klein.orbit_of((2, 3, 2))[0] | klein.orbit_of((3, 2, 2))[0])

        res = mm.correction_term(part)
        assert res.corner_coefficient == Fraction(3, 4)

        # rebuild the whole identity from partition data alone
        orbits = list(part.orbits)
        def coeff_vector(weights):
            out = [Fraction(0)] * len(orbits)
            for m, w in weights.items():
                out[next(i for i, (o, _) in enumerate(orbits)
                         if m in o)] += w
            return out
        lhs_t = mm.orbit_partition_sum(part, coeff_vector(
            {(1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 3): 1, (2, 3, 2): 1,
             (3, 2, 2): 1, (2, 3, 3): 1, (3, 2, 3): 1, (3, 3, 2): 1,
             (3, 3, 3): 1}))
        r_t = mm.orbit_partition_sum(part, coeff_vector(
            {(3, 3, 2): Fraction(1, 2), (3, 2, 3): 1,
             (3, 3, 3): res.corner_coefficient}))
        assert mm.form_equal(lhs_t, mm.combine(mm.classical(3), 1, r_t, 1))
    _report(11, "order-4 partition data validates and replays the "
                "decomposition identity with the same derived corner "
                "coefficient", check)


def test_criterion_12_codegen_execution():
    def check():
        rng = random.Random(11)
        for t in (mm.strassen(), mm.laderman(), mm.laderman_variant(1)):
            for _ in range(30):
                a, b = rand_matrix(rng, t.dim), rand_matrix(rng, t.dim)
                assert mm.contract12(t, a, b).transpose() == a @ b
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        res = mm.recursive_multiply(mm.strassen(), a, b, threshold=1)
        assert res.scalar_multiplications == 49 and res.product == a @ b
        a, b = rand_matrix(rng, 9), rand_matrix(rng, 9)
        res = mm.recursive_multiply(mm.laderman_variant(1), a, b,
                                    threshold=1)
        assert res.scalar_multiplications == 529 and res.product == a @ b
    _report(12, "contraction and recursion reproduce exact products with "
                "49 and 529 base multiplications", check)


def test_criterion_13_roundtrips():
    def check():
        builtins = [mm.classical(1), mm.classical(2), mm.classical(3),
                    mm.classical(4), mm.strassen(), mm.winograd(2),
                    mm.lifted_winograd(1), mm.laderman(),
                    mm.klein_orbit_sum_winograd(1), mm.laderman_variant(1)]
        for t in builtins:
            assert mm.parse_trilinear(mm.print_trilinear(t)).terms == \
                t.nonzero_terms()
            assert mm.read_tensor_file(mm.write_tensor_file(t)) == t
        from importlib import resources
        text = (resources.files("mmtensor") / "data"
                / "laderman.txt").read_text()
        assert mm.is_matmul_tensor(mm.parse_trilinear(text))
    _report(13, "text and file round trips are the identity on every "
                "builtin; the checked-in 23-term text verifies", check)
