"""Turn a tensor into an executable bilinear schedule.

A Schedule holds a verified multiplication tensor's nonzero terms and
nothing else: product p is read off term p's a and b factors, and the
outputs off the c factors.  Execution lowers those factors' int rows once.

Convention note: with the trace pairing used throughout, the (1,2)
contraction of a multiplication tensor yields the transposed product, i.e.
contract12(t, A, B) == (A.B)^T.  Schedules and recursive_multiply fold the
final transpose in, so they compute A.B itself: the accumulation for output
entry (s,u) collects the c factor's (u,s) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, sub

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
        return _run(self, a, b, padded=n, levels=1)[0]


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


# Execution runs on plain lists of int rows.  A schedule is lowered once to
# integer coefficients on flat block indices k = (i-1)*n + (j-1); the inputs
# enter as their int rows; the product is divided out once at the end.

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


def _blocks(x, bs: int):
    """The bs x bs blocks of the row list x, by flat block index."""
    starts = range(0, len(x), bs)
    return [[row[j:j + bs] for row in x[i:i + bs]]
            for i in starts for j in starts]


def _combo(blocks, terms):
    """sum of c*blocks[k] over (k, c) in terms; builds new rows only."""
    (k, c), *rest = terms
    acc = blocks[k]
    if c == -1:
        acc = [[-v for v in row] for row in acc]
    elif c != 1:
        acc = [[c * v for v in row] for row in acc]
    for k, c in rest:
        if c == 1:
            acc = [list(map(add, r, s)) for r, s in zip(acc, blocks[k])]
        elif c == -1:
            acc = [list(map(sub, r, s)) for r, s in zip(acc, blocks[k])]
        else:
            acc = [[u + c * v for u, v in zip(r, s)]
                   for r, s in zip(acc, blocks[k])]
    return acc


def _run(s: Schedule, a: Matrix, b: Matrix, padded: int, levels: int):
    """A.B through `levels` recursion levels of s, leaves by schoolbook.

    a and b are zero-padded to padded x padded, where padded is
    s.dim**levels times the leaf size.
    Returns (product, scalar multiplications done at the leaves).
    """
    n = s.dim
    a_prog, b_prog, c_prog, scale = _lower(s)
    count = 0

    def step(x, y, depth):
        nonlocal count
        if not depth:
            count += len(x) ** 3
            cols = list(zip(*y))
            return [[sum(map(mul, row, col)) for col in cols] for row in x]
        bs = len(x) // n
        xb, yb = _blocks(x, bs), _blocks(y, bs)
        prods = [step(_combo(xb, af), _combo(yb, bf), depth - 1)
                 for af, bf in zip(a_prog, b_prog)]
        out = [_combo(prods, cf) if cf else [[0] * bs for _ in range(bs)]
               for cf in c_prog]
        return [list(chain.from_iterable(rows))
                for i in range(0, n * n, n) for rows in zip(*out[i:i + n])]

    def pad(m: Matrix):
        return ([list(row) + [0] * (padded - m.cols) for row in m.num]
                + [[0] * padded for _ in range(padded - m.rows)])

    prod = step(pad(a), pad(b), levels)
    return Matrix.from_ints(a.den * b.den * scale ** levels,
                            [row[:a.rows] for row in prod[:a.rows]]), count


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
    n = t.dim
    padded, levels = a.rows, 0
    if n > 1:
        padded = 1
        while padded < a.rows:
            padded *= n
    m = padded
    while n > 1 and m > threshold:
        m //= n
        levels += 1
    prod, count = _run(extract_schedule(t), a, b, padded, levels)
    return MultiplyResult(product=prod, scalar_multiplications=count)
