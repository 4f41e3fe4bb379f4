import math
import random
import re
from fractions import Fraction
from dataclasses import replace
from functools import lru_cache, partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import mmtensor as mm
from mmtensor import (Matrix, codegen, contract12, emit_code,
                      extract_schedule, op_count)
from mmtensor.isotropy import signed_permutations

from conftest import rand_matrix
from oracles import perm_matrix

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


def run_schedule(s, a, b):
    """Reference interpreter: the schedule's a, b and c forms over the
    Fraction entries of A and B, row-major."""
    x = [v for row in a.row_list() for v in row]
    y = [v for row in b.row_list() for v in row]
    products = [sum(v * x[k] for k, v in fa) * sum(v * y[k] for k, v in fb)
                for fa, fb in zip(s.a, s.b)]
    out = [sum((v * products[p] for p, v in form), Fraction(0))
           for form in s.c]
    return Matrix([out[i:i + s.dim] for i in range(0, len(out), s.dim)])


def run_emitted(s, a, b):
    """The flat emit_code text of s run as Python over the Fraction entries
    of A and B, temporaries included; p/q literals are read as Fractions."""
    env = {"F": Fraction}
    for letter, m in (("a", a), ("b", b)):
        for (i, j), v in zip(product(range(1, s.dim + 1), repeat=2),
                             (v for row in m.row_list() for v in row)):
            env[f"{letter}{i}{j}"] = v
    exec(re.sub(r"(\d+)/(\d+)", r"F(\1, \2)", emit_code(s)), env)
    return Matrix([[env[f"c{i}{j}"] for j in range(1, s.dim + 1)]
                   for i in range(1, s.dim + 1)])


def _agrees(t, a, b):
    s = extract_schedule(t)
    got = run_schedule(s, a, b)
    # the schedule folds the final transpose in
    assert got == contract12(t, a, b).transpose()
    assert got == a @ b
    assert got == mm.recursive_multiply(t, a, b).product
    assert run_emitted(s, a, b) == got


def test_schedule_agrees_with_contract12(rng):
    for t in (mm.classical(2), mm.strassen(), mm.winograd(2), mm.laderman(),
              mm.laderman_variant(Fraction(-3, 7))):
        for _ in range(10):
            _agrees(t, rand_matrix(rng, t.dim), rand_matrix(rng, t.dim))


def test_schedule_skips_zero_terms():
    zero = mm.term(Matrix.zeros(2), Matrix.identity(2), Matrix.identity(2))
    t = mm.Tensor(2, (zero,) + mm.strassen().terms + (zero,))
    sched = extract_schedule(t)
    assert len(sched.a) == len(sched.b) == mm.decomposition_length(t) == 7
    assert sched == extract_schedule(mm.strassen())


def _nnz(m):
    return len(list(m.entries()))


@pytest.mark.parametrize("make", [
    lambda: mm.classical(3), mm.strassen, lambda: mm.winograd(Fraction(5, 7)),
    mm.laderman, lambda: mm.laderman_variant(1),
    lambda: mm.laderman_variant(Fraction(-3, 7))])
def test_op_count_read_off_the_factors(make):
    """The naive counts follow from the nonzero factors alone: a form of
    m atoms takes m - 1 additions, and the n*n outputs take the c factors'
    entries less one each."""
    t = make()
    terms = t.nonzero_terms()
    counts = op_count(extract_schedule(t))
    assert counts.multiplications == mm.decomposition_length(t)
    assert counts.additions == (
        sum(_nnz(tm.a) - 1 + _nnz(tm.b) - 1 for tm in terms)
        + sum(_nnz(tm.c) for tm in terms) - t.dim ** 2)
    assert counts.scalar_multiplications == sum(
        v not in (1, -1) for tm in terms for m in (tm.a, tm.b, tm.c)
        for _, _, v in m.entries())


def test_op_counts():
    """Naive multiplications / additions / scalar multiplications, and the
    additions of the program with temporaries; the multiplications are the
    decomposition length.  Winograd's 15 is the known optimum for its
    basis; laderman and the variants share down to at most 72."""
    for t, counts, shared in [
            (mm.classical(3), (27, 18, 0), 18),
            (mm.strassen(), (7, 18, 0), 18),
            (mm.winograd(1), (7, 24, 0), 15),
            (mm.winograd(Fraction(5, 7)), (7, 24, 24), 15),
            (mm.laderman(), (23, 98, 0), 72),
            (mm.laderman_variant(1), (23, 98, 2), 72),
            (mm.laderman_variant(Fraction(2, 3)), (23, 98, 74), 72),
            (mm.laderman_variant(Fraction(3, 4)), (23, 98, 74), 72)]:
        got = op_count(extract_schedule(t))
        assert (got.multiplications, got.additions,
                got.scalar_multiplications) == counts
        assert got.shared_additions <= shared
        if shared < 72:
            assert got.shared_additions == shared
        assert counts[0] == mm.decomposition_length(t)


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


def test_emit_code_refuses_two_digit_indices():
    """a111 would be both a(1,11) and a(11,1): emit_code refuses n >= 10
    with the error of print_trilinear, whose atoms it shares."""
    sched = extract_schedule(mm.classical(10))
    with pytest.raises(ValueError, match="n <= 9") as emitted:
        emit_code(sched)
    with pytest.raises(ValueError) as printed:
        mm.print_trilinear(mm.classical(10))
    assert str(emitted.value) == str(printed.value)
    text = emit_code(extract_schedule(mm.classical(9)))
    assert text.splitlines()[-1].startswith("c99 = a91 * b19 + ")


def test_emit_code_styles_and_determinism():
    sched = extract_schedule(mm.laderman())
    flat = emit_code(sched, style="flat")
    assert flat == emit_code(extract_schedule(mm.laderman()), style="flat")
    annotated = emit_code(sched, style="annotated")
    assert "# term" in annotated
    assert "#" not in flat
    with pytest.raises(ValueError):
        emit_code(sched, style="fancy")


# Full emit_code text for schedules with fractional and negative non-unit
# coefficients, inlined products and temporaries on all three sides; the
# flat style is the annotated one without its "  # ..." comments.
WINOGRAD_5_7_ANNOTATED = """\
s1 = 7*a11 - 5*a12
s2 = 49*a21 + 5*s1
t1 = 7*b11 - 5*b12
t2 = 49*b21 + 5*t1
p1 = (-1/35*s2) * (-1/35*t2)  # term 1
p2 = (-a22 + 1/35*s2) * (-7/5*b21)  # term 2
p3 = (a11 + 7/5*a21) * (-b11 - 7/5*b21)  # term 3
p4 = (-a22) * (-b22)  # term 4
p5 = (-7/5*a21) * (-5/7*b12)  # term 5
p6 = (-1/7*s1) * (1/7*t1)  # term 6
p7 = (5/7*a12) * (b22 - 1/35*t2)  # term 7
u1 = p1 + p5
u2 = p3 + u1
c11 = -p6 - u2  # terms 1,3,5,6
c12 = 7/5*p7 - 7/5*u2  # terms 1,3,5,7
c21 = 5/7*p2 + 5/7*p6 + 5/7*u1  # terms 1,2,5,6
c22 = p4 + p5  # terms 4,5
"""

VARIANT_M3_7_ANNOTATED = """\
s1 = 7*a11 + 3*a13
s2 = 7*a12 + 3*a13
s3 = 7*a21 + 3*a23
s4 = 7*a22 + 3*a23
s5 = a31 + a32
s6 = 3*a33 + 7*s5
t1 = 7*b11 + 3*b13
t2 = 7*b12 + 3*b13
t3 = 7*b21 + 3*b23
t4 = 7*b22 + 3*b23
t5 = b31 + b32
t6 = 3*b33 + 7*t5
p5 = (7/3*a32 - 1/7*s4) * (7/3*b32 - 1/7*t4)  # term 5
p6 = (-1/7*s1 - 1/7*s4 + 1/3*s6) * (b32)  # term 6
p7 = (a22 - 7/3*a32) * (-b22 + 7/3*b32)  # term 7
p8 = (-3*a33) * (b33)  # term 8
p9 = (-a32) * (b23)  # term 9
p10 = (-1/7*s4) * (1/7*t4)  # term 10
p11 = (-a23) * (1/7*t1 + 1/7*t4 - 1/3*t6)  # term 11
p12 = (7/3*a31 - 1/7*s3) * (7/3*b31 - 1/7*t1)  # term 12
p13 = (-1/7*s2 - 1/7*s3 + 1/3*s6) * (b31)  # term 13
p14 = (a21 - 7/3*a31) * (-b11 + 7/3*b31)  # term 14
p15 = (-a31) * (b13)  # term 15
p16 = (-1/7*s3) * (1/7*t1)  # term 16
p17 = (7/3*a31 - 1/7*s1) * (7/3*b32 - 1/7*t2)  # term 17
p18 = (a11 - 7/3*a31) * (-b12 + 7/3*b32)  # term 18
p19 = (-1/7*s1) * (1/7*t2)  # term 19
p20 = (-a13) * (1/7*t2 + 1/7*t3 - 1/3*t6)  # term 20
p21 = (7/3*a32 - 1/7*s2) * (7/3*b31 - 1/7*t3)  # term 21
p22 = (a12 - 7/3*a32) * (-b21 + 7/3*b31)  # term 22
p23 = (-1/7*s2) * (1/7*t3)  # term 23
u1 = p9 + p15
u2 = p5 + p7
u3 = p12 + p14
u4 = p17 + p18
u5 = p21 + p22
c11 = a11 * b11 + p9 - p23 - u5  # terms 1,9,21,22,23
c12 = a12 * b22 + p15 - p19 - u4  # terms 2,15,17,18,19
c13 = p20 - 7/3*u1 + 7/3*u4 + 7/3*u5  # terms 9,15,17,18,20,21,22
c21 = a22 * b21 + p15 - p16 - u3  # terms 3,12,14,15,16
c22 = a21 * b12 + p9 - p10 - u2  # terms 4,5,7,9,10
c23 = p11 - 7/3*u1 + 7/3*u2 + 7/3*u3  # terms 5,7,9,11,12,14,15
c31 = -3/7*p12 + p13 - 3/7*p16 - 3/7*p21 - 3/7*p23 + 3/7*u1  # terms 9,12,13,15,16,21,23
c32 = -3/7*p5 + p6 - 3/7*p10 - 3/7*p17 - 3/7*p19 + 3/7*u1  # terms 5,6,9,10,15,17,19
c33 = -1/3*p8 - u1  # terms 8,9,15
"""


@pytest.mark.parametrize("tensor, annotated", [
    (lambda: mm.winograd(Fraction(5, 7)), WINOGRAD_5_7_ANNOTATED),
    (lambda: mm.laderman_variant(Fraction(-3, 7)), VARIANT_M3_7_ANNOTATED),
], ids=["winograd-5_7", "variant-m3_7"])
def test_emit_code_golden(tensor, annotated):
    sched = extract_schedule(tensor())
    assert emit_code(sched, style="annotated") == annotated
    flat = "".join(ln.split("  #")[0] + "\n"
                   for ln in annotated.splitlines())
    assert emit_code(sched, style="flat") == flat


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


def test_blocking():
    """The count recursive_multiply reports, known before it runs; at
    size 243, laderman takes 23**5 and strassen, padded to 256, 7**8."""
    for t in (mm.strassen(), mm.laderman(), mm.classical(2)):
        for size in (1, 3, 5, 9):
            a = Matrix.identity(size)
            for threshold in (1, 2, 4):
                assert mm.blocking(t, size, threshold)[3] == \
                    mm.recursive_multiply(t, a, a, threshold
                                          ).scalar_multiplications
    assert mm.blocking(mm.laderman(), 243) == (243, 5, 1, 23 ** 5)
    assert mm.blocking(mm.strassen(), 243) == (256, 8, 1, 7 ** 8)
    assert mm.blocking(mm.classical(9), 82) == (729, 3, 1, 729 ** 3)
    with pytest.raises(ValueError, match="threshold"):
        mm.blocking(mm.strassen(), 4, threshold=-1)


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


def test_extract_schedule_refuses_non_multiplication_tensors():
    with pytest.raises(ValueError, match="not a multiplication tensor"):
        extract_schedule(mm.klein_orbit_sum_winograd())


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


# The large branch makes the packed lanes of B and of the product wider
# than one 64-bit word.
_entries = st.one_of(
    st.integers(-99, 99).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 6)),
    st.integers(-10 ** 40, 10 ** 40).map(Fraction))


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


_SIGNED_PERMS = [perm_matrix(sp) for sp in signed_permutations(3)]
_lambdas = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                     st.integers(1, 3))
_bases = st.one_of(
    st.builds(partial(_base, "winograd"), _lambdas),
    st.builds(partial(_base, "laderman_variant"), _lambdas),
    st.builds(lambda ks: mm.act(mm.Isotropy(*(_SIGNED_PERMS[k] for k in ks)),
                                mm.laderman()),
              st.tuples(*[st.integers(0, len(_SIGNED_PERMS) - 1)] * 3)))


@settings(max_examples=30, deadline=None)
@given(st.data(), _bases)
def test_schedule_interpreter_property(data, t):
    """The interpreted a, b and c forms give A.B on random operands, for
    parametrised bases and signed-permutation images of laderman."""
    _agrees(t, data.draw(_operand(t.dim)), data.draw(_operand(t.dim)))


COMPILED_BASES = [
    ("strassen", mm.strassen), ("laderman", mm.laderman),
    ("variant-5/3", lambda: mm.laderman_variant(Fraction(-5, 3))),
    ("winograd-5/7", lambda: mm.winograd(Fraction(5, 7))),
    ("classical-1", lambda: mm.classical(1)),
    ("classical-2", lambda: mm.classical(2)),
]


@pytest.mark.parametrize("make", [m for _, m in COMPILED_BASES],
                         ids=[name for name, _ in COMPILED_BASES])
def test_compiled_schedule_sizes_and_thresholds(make, monkeypatch):
    """Every size 1-12 and threshold 1-3, and size 27 at threshold 9 (for
    laderman a batch of 23 leaves of side 9): the exact product, and one
    leaf product of m**3 multiplications per product of every level.  A
    second pass caps every level's batch at one entry, so that each level
    below the top runs one product at a time, and must agree."""
    t = make()
    n, products = t.dim, mm.decomposition_length(t)
    rng = random.Random(f"compiled:{n}:{products}")
    operands = {size: (rand_matrix(rng, size), rand_matrix(rng, size))
                for size in [*range(1, 13), 27]}
    shapes = [(size, threshold) for size in range(1, 13)
              for threshold in (1, 2, 3)] + [(27, 9)]
    for cap in (codegen._BATCH_CAP, 1):
        monkeypatch.setattr(codegen, "_BATCH_CAP", cap)
        for size, threshold in shapes:
            a, b = operands[size]
            leaf, levels = size, 0
            if n > 1:
                leaf = 1
                while leaf < size:
                    leaf *= n
                while leaf > threshold:
                    leaf //= n
                    levels += 1
            res = mm.recursive_multiply(t, a, b, threshold=threshold)
            assert res.product == a @ b
            assert res.scalar_multiplications == products ** levels * leaf ** 3


@pytest.mark.parametrize("make, scale", [
    (mm.strassen, 1), (mm.laderman, 1), (lambda: mm.laderman_variant(1), 1),
    (lambda: mm.laderman_variant(Fraction(3, 4)), 1728)])
def test_compiled_forms_are_primitive(make, scale):
    """Each cleared a and b form is its schedule form over a factor, with
    coprime ints and a positive first one; the factors go into c, whose
    ints are scale times the schedule's c coefficients times them.  So
    laderman_variant(1), whose -3*a33 once set every c coefficient to a
    multiple of 3, compiles with scale 1."""
    s = extract_schedule(make())
    prog = codegen._lower(s)
    assert prog.scale == codegen._compile(make())[4] == scale
    for forms, q, cleared in ((s.a, prog.qa, prog.a.cleared),
                              (s.b, prog.qb, prog.b.cleared)):
        for form, f, ints in zip(forms, q, cleared):
            assert [(k, f * v) for k, v in ints] == list(form)
            assert ints[0][1] > 0 and math.gcd(*(v for _, v in ints)) == 1
    assert [[(p, Fraction(v, prog.scale) / (prog.qa[p] * prog.qb[p]))
             for p, v in ints] for ints in prog.c.cleared] == \
        [list(form) for form in s.c]


def _mutants(prog):
    """prog with one coefficient of a form or a temporary changed, or one
    use of a temporary in a form read from another variable."""
    for side in "abc":
        sd = getattr(prog, side)
        for i, form in enumerate(sd.forms):
            for j, (x, k) in enumerate(form):
                changed = [form[:j] + ((x, k + 1),) + form[j + 1:]]
                if x >= sd.inputs:  # a temporary: read another one
                    other = x - 1 if x > sd.inputs else x + 1
                    if other < sd.inputs + len(sd.temps) and \
                            other not in dict(form):
                        changed.append(
                            form[:j] + ((other, k),) + form[j + 1:])
                for mutated in changed:
                    forms = sd.forms[:i] + (mutated,) + sd.forms[i + 1:]
                    yield replace(prog, **{side: replace(sd, forms=forms)})
        for i, (u, v, alpha, beta) in enumerate(sd.temps):
            temps = list(sd.temps)
            temps[i] = (u, v, alpha, beta + 1)
            yield replace(prog, **{side: replace(sd, temps=tuple(temps))})


@pytest.mark.parametrize("make", [
    lambda: mm.winograd(1), mm.laderman,
    lambda: mm.laderman_variant(Fraction(3, 4))])
def test_compiled_program_proof_refuses_mutants(make):
    """_compile proves down and up against the cleared forms before it
    caches them; a program with one coefficient changed, or one use of a
    temporary read from another variable, is refused."""
    prog = codegen._lower(extract_schedule(make()))
    codegen._prove(prog, *codegen._build(prog))
    mutants = list(_mutants(prog))
    assert len(mutants) > 40
    for mutant in mutants:
        with pytest.raises(RuntimeError, match="does not compute"):
            codegen._prove(mutant, *codegen._build(mutant))


# (id, base, size, threshold): two levels over leaves of side 2 or 3, and
# a dim-1 base whose one leaf is the whole operand.
_EDGE_SHAPES = [
    ("strassen", mm.strassen, 8, 2), ("laderman", mm.laderman, 27, 3),
    ("variant-3/4", lambda: mm.laderman_variant(Fraction(3, 4)), 27, 3),
    ("classical-1", lambda: mm.classical(1), 5, 1),
]


def _least_reaching(bits, c):
    """The least M with c * M**2 >= 2**bits."""
    m = math.isqrt(-(-(1 << bits) // c))
    while c * m * m < 1 << bits:
        m += 1
    return m


@pytest.mark.parametrize("make, size, threshold",
                         [shape[1:] for shape in _EDGE_SHAPES],
                         ids=[shape[0] for shape in _EDGE_SHAPES])
@pytest.mark.parametrize("magnitude", ["99", "640 digits", "2**63",
                                       "2**127", "2**4223"])
def test_recursive_multiply_lanes_at_the_bound(make, size, threshold,
                                               magnitude):
    """Every product lane at the bound the lane width is chosen from,
    scale**levels * size * M**2, with both signs: row i of A is s_k * M
    over k, and column j of B is s_k * M times t_j, so entry (i, j) of
    a.num @ b.num is t_j * size * M**2.  M is 99, a 640-digit number, or
    the least M that takes the bound to 2**63, 2**127 or 2**4223, where
    lanes one bit narrower than the bound needs would overflow."""
    t = make()
    scale = codegen._compile(t)[4]
    levels = mm.blocking(t, size, threshold)[1]
    c = scale ** levels * size
    m = {"99": 99, "640 digits": 10 ** 639,
         "2**63": _least_reaching(63, c),
         "2**127": _least_reaching(127, c),
         "2**4223": _least_reaching(4223, c)}[magnitude]
    signs = [(-1) ** (k * k // 3) for k in range(size)]
    a = Matrix([[s * m for s in signs] for _ in range(size)])
    b = Matrix([[s * m * (-1) ** j for j in range(size)] for s in signs])
    want = Matrix([[size * m * m * (-1) ** j for j in range(size)]
                   for _ in range(size)])
    assert a @ b == want
    res = mm.recursive_multiply(t, a, b, threshold=threshold)
    assert res.product == want


def test_equal_tensors_share_one_compiled_program(rng):
    from mmtensor.codegen import _compile
    t1, t2 = mm.laderman_variant(Fraction(3, 4)), mm.laderman_variant(
        Fraction(3, 4))
    assert t1 is not t2 and t1 == t2
    assert _compile(t1) is _compile(t2)
    a, b = rand_matrix(rng, 9), rand_matrix(rng, 9)
    r1, r2 = (mm.recursive_multiply(t, a, b) for t in (t1, t2))
    assert r1 == r2 and r1.product == a @ b


def test_non_multiplication_tensor_refused_on_every_call():
    eye = Matrix.identity(2)
    for _ in range(3):
        with pytest.raises(ValueError, match="not a multiplication tensor"):
            mm.recursive_multiply(mm.lifted_winograd(), eye, eye)


def test_classical_1_leaf_is_the_whole_operand(rng):
    """With a dim-1 base the leaf kernel is the whole 64 x 64 product; its
    source grows with the leaf side, not its cube."""
    a = Matrix([[rng.randint(-99, 99) for _ in range(64)] for _ in range(64)])
    b = Matrix([[Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                 for _ in range(64)] for _ in range(64)])
    res = mm.recursive_multiply(mm.classical(1), a, b)
    assert res.product == a @ b
    assert res.scalar_multiplications == 64 ** 3
