"""Turn a tensor into an executable bilinear schedule.

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
from .tensor import Tensor, is_matmul_tensor
from .trilinear import format_form, format_sum

# A linear form over matrix entries: {(i, j): coefficient}.
LinearForm = dict[tuple[int, int], Fraction]


def contract12(t: Tensor, a: Matrix, b: Matrix) -> Matrix:
    """Sum of trace(Ta^T A) trace(Tb^T B) Tc over the terms.

    For a verified multiplication tensor the result D satisfies D^T == A.B.
    """
    if not (a.rows == a.cols == b.rows == b.cols == t.dim):
        raise ValueError("contract12 expects square matrices of the tensor "
                         "dimension")
    n = t.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for tm in t.terms:
        w = tm.a.trace_pair(a) * tm.b.trace_pair(b)
        if w:
            for i, j, v in tm.c.entries():
                rows[i - 1][j - 1] += w * v
    return Matrix(rows)


@dataclass(frozen=True)
class Schedule:
    """Straight-line bilinear program extracted from a tensor.

    r products; product p multiplies the a_forms[p] combination of A entries
    with the b_forms[p] combination of B entries; output entry (s,u) is the
    linear combination c_entries[(s,u)] of products.
    """

    dim: int
    a_forms: tuple[LinearForm, ...]
    b_forms: tuple[LinearForm, ...]
    c_entries: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]

    @property
    def num_products(self) -> int:
        return len(self.a_forms)

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
    """One product per nonzero term; c coefficients are transpose-folded.
    Raises ValueError when t is not a multiplication tensor."""
    if not is_matmul_tensor(t):
        raise ValueError("base tensor is not a multiplication tensor")
    a_forms, b_forms = [], []
    c_entries: dict[tuple[int, int], list] = {}
    for p, tm in enumerate(t.nonzero_terms()):
        a_forms.append({(i, j): v for i, j, v in tm.a.entries()})
        b_forms.append({(i, j): v for i, j, v in tm.b.entries()})
        for u, s, v in tm.c.entries():
            c_entries.setdefault((s, u), []).append((p, v))
    return Schedule(dim=t.dim,
                    a_forms=tuple(a_forms),
                    b_forms=tuple(b_forms),
                    c_entries={k: tuple(v) for k, v in c_entries.items()})


def op_count(s: Schedule) -> OpCount:
    """Naive counts: no common-subexpression elimination."""
    adds = 0
    scalar = 0
    for form in list(s.a_forms) + list(s.b_forms):
        adds += max(len(form) - 1, 0)
        scalar += sum(1 for c in form.values() if c not in (1, -1))
    for accum in s.c_entries.values():
        adds += max(len(accum) - 1, 0)
        scalar += sum(1 for _, c in accum if c not in (1, -1))
    return OpCount(multiplications=s.num_products, additions=adds,
                   scalar_multiplications=scalar)


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

    def single_unit(form: LinearForm) -> bool:
        return len(form) == 1 and next(iter(form.values())) == 1

    uses: dict[int, list[Fraction]] = {}
    for accum in s.c_entries.values():
        for p, c in accum:
            uses.setdefault(p, []).append(c)
    inline = {p for p, cs in uses.items() if cs == [1]
              and single_unit(s.a_forms[p]) and single_unit(s.b_forms[p])}
    ab = [(format_form("a", af.items()), format_form("b", bf.items()))
          for af, bf in zip(s.a_forms, s.b_forms)]

    lines = []
    for p, (a, b) in enumerate(ab):
        if p not in inline:
            note = f"  # term {p + 1}" if annotate else ""
            lines.append(f"p{p + 1} = ({a}) * ({b}){note}")
    for si in range(1, s.dim + 1):
        for ui in range(1, s.dim + 1):
            accum = s.c_entries.get((si, ui), ())
            rhs = format_sum((" * ".join(ab[p]) if p in inline
                              else f"p{p + 1}", c) for p, c in accum)
            line = f"c{si}{ui} = {rhs}"
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
# are scaled to integers once; the product is divided out once at the end.

def _int_terms(terms) -> tuple[tuple[tuple[int, int], ...], int]:
    """((key, c*d) pairs, d) for d the lcm of the denominators of the
    coefficients c; a coefficient-1 term comes first if there is one."""
    d = lcm(1, *(c.denominator for _, c in terms))
    return tuple(sorted(((k, (c * d).numerator) for k, c in terms),
                        key=lambda kc: kc[1] != 1)), d


def _lower(s: Schedule):
    """Integer program for s: (a_prog, b_prog, c_prog, scale).

    Product p is (sum c*X_k over a_prog[p]) times (sum c*Y_k over
    b_prog[p]); output block k is sum c*P_p over c_prog[k].  Its outputs
    are exactly scale times those of s: each a and b form is multiplied by
    the lcm of its denominators, each c coefficient divided by the two
    weights of its product, and then all multiplied by the lcm of their
    own denominators.
    """
    n = s.dim

    def flat(form: LinearForm):
        return _int_terms([((i - 1) * n + j - 1, c)
                           for (i, j), c in form.items()])

    a_prog, b_prog, weights = [], [], []
    for af, bf in zip(s.a_forms, s.b_forms):
        (a_terms, alpha), (b_terms, beta) = flat(af), flat(bf)
        a_prog.append(a_terms)
        b_prog.append(b_terms)
        weights.append(alpha * beta)
    c_forms = [[(p, c / weights[p]) for p, c in s.c_entries.get((si, ui), ())]
               for si in range(1, n + 1) for ui in range(1, n + 1)]
    scale = lcm(1, *(c.denominator for form in c_forms for _, c in form))
    c_prog = [_int_terms([(p, c * scale) for p, c in form])[0]
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


def _cleared(m: Matrix, padded: int):
    """(int rows of d*m zero-padded to padded x padded, d) with d the lcm
    of m's entry denominators."""
    rows = m.row_list()
    d = lcm(*(v.denominator for row in rows for v in row))
    pad = [0] * (padded - m.cols)
    out = [[v.numerator * (d // v.denominator) for v in row] + pad
           for row in rows]
    out += [[0] * padded for _ in range(padded - m.rows)]
    return out, d


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

    ai, da = _cleared(a, padded)
    bi, db = _cleared(b, padded)
    prod = step(ai, bi, levels)
    div = da * db * scale ** levels
    return Matrix([[Fraction(v, div) for v in row[:a.rows]]
                   for row in prod[:a.rows]]), count


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
