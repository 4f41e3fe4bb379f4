"""Turn a tensor into an executable bilinear schedule.

extract_schedule reads a verified multiplication tensor's nonzero terms,
once, into a Schedule: the linear forms of a straight-line program, whose
product p multiplies a form in the entries of A by a form in the entries
of B and whose output entries are forms in the products.  op_count counts
over those forms, emit_code prints them, and execution compiles them once
per base tensor, with denominators cleared, into two generated Python
functions for one recursion level, down and up, and runs each level once
over all its subproblems.

Operands are flat int lists in digit-reversed order: the top level's
block digit is the least significant, so block i of every subproblem of a
level is the one strided slice X[i::n*n].  down applies each a and b form
to those slices in one comprehension and concatenates the products'
operands, the product index becoming the most significant digit of the
next level's batch; up slices the product streams apart, applies the c
forms and interleaves the n*n output blocks back into the layout down
read.  A generated schoolbook kernel multiplies the whole batch of leaves
at once.  Where the operands down returns would pass _BATCH_CAP entries,
the level below runs on one product's contiguous slice at a time, which
bounds memory.

Convention note: with the trace pairing used throughout, the (1,2)
contraction of a multiplication tensor yields the transposed product, i.e.
contract12(t, A, B) == (A.B)^T.  Schedules and recursive_multiply fold the
final transpose in, so they compute A.B itself: the form of output entry
(s,u) collects the (u,s) coefficients of the c factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

from .matrix import Matrix
from .tensor import Tensor, is_matmul_tensor
from .trilinear import atoms, format_sum

# A linear form: (index, coefficient) pairs with nonzero coefficients.
Form = tuple[tuple[int, Fraction], ...]


def contract12(t: Tensor, a: Matrix, b: Matrix) -> Matrix:
    """Sum of trace(Ta^T A) trace(Tb^T B) Tc over the terms.

    For a verified multiplication tensor the result D satisfies D^T == A.B.
    """
    if not (a.rows == a.cols == b.rows == b.cols == t.dim):
        raise ValueError("contract12 expects square matrices of the tensor "
                         "dimension")
    return sum((tm.c.scale(tm.a.trace_pair(a) * tm.b.trace_pair(b))
                for tm in t.terms), Matrix.zeros(t.dim))


@dataclass(frozen=True)
class Schedule:
    """Straight-line bilinear program of a verified multiplication tensor.

    Product p is (sum of v*A_k over a[p]) times (sum of v*B_k over b[p]),
    with k the row-major flat index of an n x n entry.  Output entry k =
    (s,u), row-major, is the sum of v*P_p over c[k], in product order.
    """

    dim: int
    a: tuple[Form, ...]
    b: tuple[Form, ...]
    c: tuple[Form, ...]


@dataclass(frozen=True)
class OpCount:
    multiplications: int
    additions: int
    scalar_multiplications: int


def extract_schedule(t: Tensor) -> Schedule:
    """The schedule of t's nonzero terms, one product each.  Raises
    ValueError when t is not a multiplication tensor."""
    if not is_matmul_tensor(t):
        raise ValueError("base tensor is not a multiplication tensor")
    n = t.dim
    terms = t.nonzero_terms()

    def form(m: Matrix) -> Form:
        return tuple((k, Fraction(v, m.den))
                     for k, v in enumerate(m.num) if v)

    c = [[] for _ in range(n * n)]
    for p, tm in enumerate(terms):
        for u, s, v in tm.c.entries():
            c[(s - 1) * n + u - 1].append((p, v))
    return Schedule(n, tuple(form(tm.a) for tm in terms),
                    tuple(form(tm.b) for tm in terms), tuple(map(tuple, c)))


def op_count(s: Schedule) -> OpCount:
    """Naive counts: no common-subexpression elimination."""
    forms = s.a + s.b + s.c
    return OpCount(
        multiplications=len(s.a),
        additions=sum(max(len(f) - 1, 0) for f in forms),
        scalar_multiplications=sum(v not in (1, -1)
                                   for f in forms for _, v in f))


def emit_code(s: Schedule, style: str = "flat") -> str:
    """Deterministic straight-line pseudo-code for the schedule.

    Products whose two input forms are single unit atoms and which feed a
    single output with coefficient 1 are inlined into that output line;
    everything else gets a named product line.  'annotated' appends the
    originating term indices.  Atoms like a11 have one digit per index, so
    s.dim must be at most 9.
    """
    if style not in ("flat", "annotated"):
        raise ValueError(f"unknown style: {style}")
    annotate = style == "annotated"
    a_atoms, b_atoms, c_atoms = (atoms(x, s.dim) for x in "abc")

    def unit(form: Form) -> bool:
        return [v for _, v in form] == [1]

    feeds = [[] for _ in s.a]
    for k, form in enumerate(s.c):
        for p, v in form:
            feeds[p].append((k, v))
    inline = {p for p, forms in enumerate(zip(s.a, s.b, feeds))
              if all(map(unit, forms))}
    ab = [(format_sum((a_atoms[k], v) for k, v in fa),
           format_sum((b_atoms[k], v) for k, v in fb))
          for fa, fb in zip(s.a, s.b)]

    lines = []
    for p, (a, b) in enumerate(ab):
        if p not in inline:
            note = f"  # term {p + 1}" if annotate else ""
            lines.append(f"p{p + 1} = ({a}) * ({b}){note}")
    for k, form in enumerate(s.c):
        rhs = format_sum((" * ".join(ab[p]) if p in inline
                          else f"p{p + 1}", v) for p, v in form)
        line = f"{c_atoms[k]} = {rhs}"
        if annotate and form:
            line += "  # terms " + ",".join(str(p + 1) for p, _ in form)
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MultiplyResult:
    product: Matrix
    scalar_multiplications: int


# Each base tensor is verified and compiled once; the product is divided
# out once at the end.  The benchmark's multiply workload uses 3 bases, 2
# leaf sizes and 2 layouts, so each cache below holds 4 entries.

# Entries the operands down returns may hold before the level below runs
# one product at a time: at mul's largest size, 243 on laderman, this keeps
# the peak about 20 MB above the inputs.
_BATCH_CAP = 1 << 16


def _form(terms, blocks: str, var: str) -> str:
    """Source of the list sum c*blocks[k] over (k, c) in terms, built in one
    comprehension; a lone unit term is the block itself."""
    if len(terms) == 1 and terms[0][1] == 1:
        return f"{blocks}[{terms[0][0]}]"
    names = [f"{var}{k}" for k, _ in terms]
    rhs = format_sum(zip(names, (c for _, c in terms)))
    if len(terms) == 1:
        return f"[{rhs} for {names[0]} in {blocks}[{terms[0][0]}]]"
    return (f"[{rhs} for {', '.join(names)} in "
            f"zip({', '.join(f'{blocks}[{k}]' for k, _ in terms)})]")


@lru_cache(maxsize=4)
def _compile(t: Tensor):
    """(n, products, down, up, scale) for t's verified schedule.

    down(X, Y) takes a batch of subproblems, each n*n blocks with the block
    digit least significant, and returns the products' a and b operands,
    one batch per product with the product index most significant.
    up(P) takes the products in that layout and returns the n*n output
    blocks, interleaved back into the layout of X, scale times A.B.  The a
    and b forms are multiplied by their own lcm denominators into ints; the
    c coefficients are divided by those two and then cleared by scale, the
    lcm of their own denominators.  Coefficients 1 go first in every form.
    Raises ValueError when t is not a multiplication tensor (lru_cache
    keeps no result for that).
    """
    s = extract_schedule(t)

    def den(form: Form) -> int:
        return lcm(*(v.denominator for _, v in form))

    def ints(form: Form, d: int):
        return sorted(((k, int(v * d)) for k, v in form),
                      key=lambda kv: kv[1] != 1)

    def stream(forms, blocks, var):
        return ", ".join(f"*{_form(ints(f, den(f)), blocks, var)}"
                         for f in forms)

    c = [tuple((p, v / (den(s.a[p]) * den(s.b[p]))) for p, v in form)
         for form in s.c]
    scale = lcm(*map(den, c))
    blocks = s.dim ** 2
    outputs = ",\n                ".join(_form(ints(form, scale), "P", "p")
                                       for form in c)
    env = {"chain": chain}
    exec("def down(X, Y):\n"
         f"    X = [X[i::{blocks}] for i in range({blocks})]\n"
         f"    Y = [Y[i::{blocks}] for i in range({blocks})]\n"
         f"    return [{stream(s.a, 'X', 'x')}], [{stream(s.b, 'Y', 'y')}]\n"
         "def up(P):\n"
         f"    q = len(P) // {len(s.a)}\n"
         "    P = [P[i:i + q] for i in range(0, len(P), q)]\n"
         f"    return list(chain.from_iterable(zip({outputs})))\n", env)
    return s.dim, len(s.a), env["down"], env["up"], scale


@lru_cache(maxsize=4)
def _leaf(m: int):
    """Schoolbook products of a batch of m x m row-major int lists laid end
    to end, in one comprehension over the leaves, their rows and their
    columns.  Inner products are unrolled, so the source grows as m, not
    m**3."""
    xs = ", ".join(f"x{k}" for k in range(m)) + ","
    ys = xs.replace("x", "y")
    body = " + ".join(f"x{k}*y{k}" for k in range(m))
    env = {}
    exec("def leaf(X, Y):\n"
         f"    rows = zip(*[zip(*[iter(X)] * {m})] * {m})\n"
         f"    cols = zip(*[zip(*[iter(Y[u::{m}])] * {m}) "
         f"for u in range({m})])\n"
         f"    return [{body} for R, C in zip(rows, cols)\n"
         f"            for {xs} in R for {ys} in C]\n", env)
    return env["leaf"]


@lru_cache(maxsize=4)
def _order(size: int, padded: int, n: int, levels: int) -> tuple[int, ...]:
    """Row-major indices of a size x size matrix zero-padded to padded x
    padded, in digit-reversed order, size**2 at each padding position:
    position i + n*n*j holds position j, in this order itself, of the
    top-level block i (row-major), down to row-major leaves of side
    padded // n**levels.  So block i is the strided slice [i::n*n], the
    leaf entry is the most significant digit, and the same holds for the
    operands of every level: down puts each product's batch of subproblems
    whole, one after another, above their block digits."""
    m = side = padded // n ** levels
    order = [i * padded + j for i in range(m) for j in range(m)]
    for _ in range(levels):
        order = [k + (bi * padded + bj) * side for k in order
                 for bi in range(n) for bj in range(n)]
        side *= n
    return tuple(r * size + c if r < size and c < size else size * size
                 for r, c in (divmod(k, padded) for k in order))


def blocking(t: Tensor, size: int, threshold: int = 1):
    """(padded, levels, m, multiplications) of recursive_multiply on size x
    size inputs: size zero-padded up to the next power of t.dim, split for
    as many levels as leave blocks of side m above the threshold, and the
    entry-level multiplications that takes.  Level d runs on a batch of
    products**d subproblems and the leaf kernel on products**levels pairs
    of m x m blocks, each in one pass unless the batch cap splits a level
    above it by product.  Raises ValueError when t is not a multiplication
    tensor."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return _blocking(_compile(t), size, threshold)


def _blocking(compiled, size: int, threshold: int):
    """blocking for the _compile result of its tensor."""
    n, products = compiled[:2]
    padded, levels = size, 0
    if n > 1:
        padded = 1
        while padded < size:
            padded *= n
    m = padded
    while n > 1 and m > threshold:
        m //= n
        levels += 1
    return padded, levels, m, products ** levels * m ** 3


def recursive_multiply(t: Tensor, a: Matrix, b: Matrix,
                       threshold: int = 1) -> MultiplyResult:
    """Exact A.B by recursive blocking with t as the base tensor.

    Inputs are zero-padded up to the next power of t.dim; blocks below the
    threshold fall back to schoolbook.  scalar_multiplications counts the
    entry-level multiplications actually performed.  Raises ValueError when
    t is not a multiplication tensor.
    """
    if not (a.is_square() and b.is_square() and a.rows == b.rows):
        raise ValueError("recursive_multiply expects square matrices of "
                         "equal size")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    compiled = _compile(t)
    padded, levels, m, count = _blocking(compiled, a.rows, threshold)
    n, products, down, up, scale = compiled

    def run(X, Y, depth):
        # Levels depth.. of X and Y: one down per level over the whole batch
        # while it fits under the cap; past it the level below runs on one
        # product's slice at a time.  Then one up per level descended.
        top = depth
        while depth < levels and len(X) * products <= _BATCH_CAP * n * n:
            X, Y = down(X, Y)
            depth += 1
        if depth == levels:
            P = _leaf(m)(X, Y)
        else:
            X, Y = down(X, Y)
            depth += 1
            q = len(X) // products
            P = list(chain.from_iterable(run(X[i:i + q], Y[i:i + q], depth)
                                         for i in range(0, len(X), q)))
        del X, Y  # up's outputs need not share the peak with the operands
        for _ in range(top, depth):
            P = up(P)
        return P

    order = _order(a.rows, padded, n, levels)

    def blocked(x: Matrix):
        num = x.num + (0,)  # read at padding positions
        return [num[k] for k in order]

    num = [0] * (a.rows ** 2 + 1)  # the last entry takes the padding
    for k, v in zip(order, run(blocked(a), blocked(b), 0)):
        num[k] = v
    return MultiplyResult(
        product=Matrix.from_ints(a.den * b.den * scale ** levels, a.rows,
                                 num[:-1]),
        scalar_multiplications=count)
