"""Turn a tensor into an executable bilinear schedule.

A Schedule holds a verified multiplication tensor's nonzero terms and
nothing else: product p is read off term p's a and b factors, and the
outputs off the c factors.  Execution compiles each verified base tensor
once, from those factors' int rows, into a generated Python function for
one recursion level, and runs it on flat int lists in block-recursive
order, with a generated schoolbook kernel at the leaves.

Convention note: with the trace pairing used throughout, the (1,2)
contraction of a multiplication tensor yields the transposed product, i.e.
contract12(t, A, B) == (A.B)^T.  Schedules and recursive_multiply fold the
final transpose in, so they compute A.B itself: the accumulation for output
entry (s,u) collects the c factor's (u,s) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm

from .matrix import Matrix
from .tensor import RankOneTerm, Tensor, is_matmul_tensor
from .trilinear import format_form, format_sum


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

    terms are the tensor's nonzero terms, one product each: product p
    multiplies the combination of A entries given by terms[p].a with the
    combination of B entries given by terms[p].b.  Output entry (s,u) sums
    the products p weighted by the (u,s) entries of terms[p].c.
    """

    dim: int
    terms: tuple[RankOneTerm, ...]

    @property
    def num_products(self) -> int:
        return len(self.terms)

    def outputs(self) -> list[list[tuple[int, Fraction]]]:
        """The (p, coefficient) pairs of each output entry (s,u), row-major
        over (s,u) and in product order within one entry."""
        n = self.dim
        outs = [[] for _ in range(n * n)]
        for p, tm in enumerate(self.terms):
            for u, s, v in tm.c.entries():
                outs[(s - 1) * n + u - 1].append((p, v))
        return outs

    def evaluate(self, a: Matrix, b: Matrix) -> Matrix:
        """Run the schedule: A.B."""
        n = self.dim
        if not (a.rows == a.cols == b.rows == b.cols == n):
            raise ValueError("evaluate expects square matrices of the "
                             "schedule dimension")
        return recursive_multiply(Tensor(n, self.terms), a, b).product


@dataclass(frozen=True)
class OpCount:
    multiplications: int
    additions: int
    scalar_multiplications: int


def extract_schedule(t: Tensor) -> Schedule:
    """The schedule of t's nonzero terms.  Raises ValueError when t is not
    a multiplication tensor."""
    if not is_matmul_tensor(t):
        raise ValueError("base tensor is not a multiplication tensor")
    return Schedule(dim=t.dim, terms=t.nonzero_terms())


def op_count(s: Schedule) -> OpCount:
    """Naive counts: no common-subexpression elimination."""
    forms = [[v for _, _, v in m.entries()]
             for tm in s.terms for m in (tm.a, tm.b)]
    forms += [[c for _, c in accum] for accum in s.outputs()]
    return OpCount(
        multiplications=s.num_products,
        additions=sum(max(len(cs) - 1, 0) for cs in forms),
        scalar_multiplications=sum(c not in (1, -1)
                                   for cs in forms for c in cs))


def emit_code(s: Schedule, style: str = "flat") -> str:
    """Deterministic straight-line pseudo-code for the schedule.

    Products whose two input forms are single unit atoms and which feed a
    single output with coefficient 1 are inlined into that output line;
    everything else gets a named product line.  'annotated' appends the
    originating term indices.
    """
    if style not in ("flat", "annotated"):
        raise ValueError(f"unknown style: {style}")
    annotate = style == "annotated"

    def single_unit(m: Matrix) -> bool:
        return [v for _, _, v in m.entries()] == [1]

    # A product feeds exactly the outputs named by its c factor's entries.
    inline = {p for p, tm in enumerate(s.terms)
              if all(map(single_unit, (tm.a, tm.b, tm.c)))}
    ab = [(format_form("a", tm.a.entries()), format_form("b", tm.b.entries()))
          for tm in s.terms]

    lines = []
    for p, (a, b) in enumerate(ab):
        if p not in inline:
            note = f"  # term {p + 1}" if annotate else ""
            lines.append(f"p{p + 1} = ({a}) * ({b}){note}")
    for k, accum in enumerate(s.outputs()):
        rhs = format_sum((" * ".join(ab[p]) if p in inline
                          else f"p{p + 1}", c) for p, c in accum)
        line = f"c{k // s.dim + 1}{k % s.dim + 1} = {rhs}"
        if annotate and accum:
            line += "  # terms " + ",".join(str(p + 1) for p, _ in accum)
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MultiplyResult:
    product: Matrix
    scalar_multiplications: int


# Execution runs on flat lists of ints in block-recursive order, where every
# block at every level is one contiguous slice.  Each base tensor is verified,
# lowered and compiled once; the product is divided out once at the end.
# The benchmark's multiply workload uses 3 bases, 2 leaf sizes and 2
# layouts, so each cache below holds 4 entries.

def _lower(s: Schedule):
    """Integer program for s: (a_prog, b_prog, c_prog, scale).

    Product p is (sum c*X_k over a_prog[p]) times (sum c*Y_k over
    b_prog[p]), read off the int rows of its a and b factors; output block
    k is sum c*P_p over c_prog[k], each c divided by the two denominators
    of P_p and all cleared by scale, the lcm of their own denominators.
    So the outputs are scale times those of s.  Coefficients 1 go first.
    """
    n = s.dim

    def prog(pairs):
        return tuple(sorted(pairs, key=lambda kc: kc[1] != 1))

    def flat(m: Matrix):
        return prog((i * n + j, v) for i, row in enumerate(m.num)
                    for j, v in enumerate(row) if v)

    a_prog = [flat(tm.a) for tm in s.terms]
    b_prog = [flat(tm.b) for tm in s.terms]
    c_forms = [[(p, c / (s.terms[p].a.den * s.terms[p].b.den))
                for p, c in accum] for accum in s.outputs()]
    scale = lcm(1, *(c.denominator for form in c_forms for _, c in form))
    c_prog = [prog((p, (c * scale).numerator) for p, c in form)
              for form in c_forms]
    return a_prog, b_prog, c_prog, scale


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
    """(n, products, level, scale) for t's verified schedule.

    level(X, Y, q, rec) is one recursion level: X and Y hold n*n blocks of
    q entries each, rec multiplies two blocks, and the result is the n*n
    output blocks, scale times A.B.  Raises ValueError when t is not a
    multiplication tensor (lru_cache keeps no result for that).
    """
    s = extract_schedule(t)
    a_prog, b_prog, c_prog, scale = _lower(s)
    products = ",\n         ".join(
        f"rec({_form(af, 'X', 'x')}, {_form(bf, 'Y', 'y')})"
        for af, bf in zip(a_prog, b_prog))
    outputs = ",\n            ".join(f"*{_form(cf, 'P', 'p')}"
                                      for cf in c_prog)
    env = {}
    exec("def level(X, Y, q, rec):\n"
         "    X = [X[i:i + q] for i in range(0, len(X), q)]\n"
         "    Y = [Y[i:i + q] for i in range(0, len(Y), q)]\n"
         f"    P = [{products}]\n"
         f"    return [{outputs}]\n", env)
    return s.dim, s.num_products, env["level"], scale


@lru_cache(maxsize=4)
def _leaf(m: int):
    """Schoolbook product of two m x m row-major int lists.

    The inner product over k is unrolled, so the source grows as m, not
    m**3: row (x0..) of x meets column (y0..) of y as x0*y0 + x1*y1 + ...
    """
    xs = ", ".join(f"x{k}" for k in range(m)) + ","
    ys = xs.replace("x", "y")
    body = " + ".join(f"x{k}*y{k}" for k in range(m))
    env = {}
    exec("def leaf(x, y):\n"
         f"    cols = list(zip(*[y[i:i + {m}] "
         f"for i in range(0, {m * m}, {m})]))\n"
         f"    return [{body} for {xs} in zip(*[iter(x)] * {m})\n"
         f"            for {ys} in cols]\n", env)
    return env["leaf"]


@lru_cache(maxsize=4)
def _order(padded: int, n: int, levels: int) -> tuple[int, ...]:
    """Row-major indices of a padded x padded matrix in block-recursive
    order: its n*n blocks in row-major order, each in this order itself,
    down to row-major leaves of side padded // n**levels."""
    m = padded // n ** levels
    order = [i * padded + j for i in range(m) for j in range(m)]
    for _ in range(levels):
        order = [(bi * padded + bj) * m + k for bi in range(n)
                 for bj in range(n) for k in order]
        m *= n
    return tuple(order)


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
    n, products, level, scale = _compile(t)
    padded, levels = a.rows, 0
    if n > 1:
        padded = 1
        while padded < a.rows:
            padded *= n
    m = padded
    while n > 1 and m > threshold:
        m //= n
        levels += 1
    run = _leaf(m)
    for d in range(levels):
        run = partial(level, q=(m * n ** d) ** 2, rec=run)
    order = _order(padded, n, levels)

    def blocked(x: Matrix):
        flat = [0] * padded ** 2
        for i, row in enumerate(x.num):
            flat[i * padded:i * padded + x.cols] = row
        return [flat[k] for k in order]

    flat = [0] * padded ** 2
    for k, v in zip(order, run(blocked(a), blocked(b))):
        flat[k] = v
    rows = [flat[i:i + a.cols] for i in range(0, a.rows * padded, padded)]
    return MultiplyResult(
        product=Matrix.from_ints(a.den * b.den * scale ** levels, rows),
        scalar_multiplications=products ** levels * m ** 3)
