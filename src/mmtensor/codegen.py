"""Turn a tensor into an executable bilinear schedule.

extract_schedule reads a verified multiplication tensor's nonzero terms,
once, into a Schedule: the linear forms of a straight-line program, whose
product p multiplies a form in the entries of A by a form in the entries
of B and whose output entries are forms in the products.  _lower clears
the denominators of those forms, making each a and b form a primitive
int form, and names shared subexpressions as temporaries by a greedy
pairwise common-subexpression elimination on each side.  op_count counts
over the forms, naive and with temporaries; emit_code prints the program
with temporaries; execution compiles it once per base tensor into two
generated Python functions for one recursion level, down and up, proves
them against the cleared forms, and runs each level once over all its
subproblems.

Operands are flat int lists in digit-reversed order: the top level's
block digit is the least significant, so the n*n block entries of a
subproblem (a position) lie next to each other and block i of every
position is the one strided slice X[i::n*n].  down is one pass over the
positions: it computes every non-unit a form of a position (and every b
form) into one tuple, temporaries bound by "for t in [...]" clauses, and
turns the tuples into one stream per product with zip; a unit form, one
block with coefficient 1, is its strided slice.  The streams are
concatenated, the product index becoming the most significant digit of
the next level's batch.  up is one pass over the zipped product streams
and returns the n*n outputs of a position as one tuple; flattened in
position order they are the layout down read.  B is packed once, before
the first level: each run of m entries of a leaf row, m the leaf side,
becomes one int with m signed lanes.  down and up are int-linear, so on
the packed B and products they compute all m lanes at once; one
generated kernel multiplies the whole batch of leaves, each row of a
product the sum of A's entries times B's packed rows, and the lanes of
the result are read back once.  Where the operands down returns would
pass _BATCH_CAP entries, the level below runs on one product's
contiguous slice at a time, which bounds memory.

Convention note: with the trace pairing used throughout, the (1,2)
contraction of a multiplication tensor yields the transposed product, i.e.
contract12(t, A, B) == (A.B)^T.  Schedules and recursive_multiply fold the
final transpose in, so they compute A.B itself: the form of output entry
(s,u) collects the (u,s) coefficients of the c factors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from .matrix import Matrix, tuple_getter
from .tensor import Tensor, is_matmul_tensor, lane_bits, signed_lanes
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
    """Naive counts over the schedule's forms, and shared_additions, the
    additions of the program recursive_multiply runs: its temporaries and
    its forms over them."""

    multiplications: int
    additions: int
    scalar_multiplications: int
    shared_additions: int


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


# A linear form over ints: (variable, coefficient) pairs, variables
# ascending.
IntForm = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class _Side:
    """The int forms cleared, over `inputs` variables, and the same forms
    over those and the temporaries named after them: temporary i is
    variable inputs + i, alpha*u + beta*v for its (u, v, alpha, beta),
    u < v, alpha > 0 and gcd(alpha, beta) == 1."""

    inputs: int
    cleared: tuple[IntForm, ...]
    temps: tuple[tuple[int, int, int, int], ...]
    forms: tuple[IntForm, ...]


@dataclass(frozen=True)
class _Program:
    """One compiled level of a schedule s, in ints.  The int a form of
    product r is s.a[r] / qa[r] and its b form s.b[r] / qb[r], each
    primitive; P_r is their product.  Output k is the c form k over the
    P_r, divided by scale.  a, b and c hold those forms with shared
    subexpressions named."""

    a: _Side
    b: _Side
    c: _Side
    qa: tuple[Fraction, ...]
    qb: tuple[Fraction, ...]
    scale: int


def _primitive(form: Form) -> tuple[Fraction, IntForm]:
    """(q, ints) with form == q * ints, the ints coprime and the first one
    positive."""
    d = lcm(*(v.denominator for _, v in form))
    ints = [v.numerator * (d // v.denominator) for _, v in form]
    g = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
    return Fraction(g, d), tuple((k, v // g) for (k, _), v in zip(form, ints))


def _share(forms: list[IntForm], inputs: int) -> _Side:
    """Greedy pairwise common-subexpression elimination.  While some pair
    (u, v, alpha, beta) occurs in two forms or more, each holding x*alpha*u
    + x*beta*v for an int x, name the pair that most forms hold (ties to the
    smallest (u, v, alpha, beta)) as a temporary and put x times it in
    those forms in place of the two terms."""
    cleared, forms = tuple(forms), [dict(f) for f in forms]
    temps = []
    while True:
        count = Counter()
        for f in forms:
            terms = sorted(f.items())
            for i, (u, x) in enumerate(terms):
                for v, y in terms[i + 1:]:
                    g = gcd(x, y) if x > 0 else -gcd(x, y)
                    count[u, v, x // g, y // g] += 1
        best = min(count, key=lambda key: (-count[key], key), default=None)
        if best is None or count[best] < 2:
            break
        u, v, alpha, beta = best
        for f in forms:
            if u in f and v in f and f[u] * beta == f[v] * alpha:
                f[inputs + len(temps)] = f.pop(u) // alpha
                del f[v]
        temps.append(best)
    return _Side(inputs, cleared, tuple(temps),
                 tuple(tuple(sorted(f.items())) for f in forms))


def _lower(s: Schedule) -> _Program:
    """s with its denominators cleared and its subexpressions shared: the
    a and b forms made primitive, their factors moved into c, and the c
    coefficients cleared by scale, the lcm of their denominators."""
    qa, a = zip(*map(_primitive, s.a))
    qb, b = zip(*map(_primitive, s.b))
    q = [x * y for x, y in zip(qa, qb)]
    c = [[(r, v * q[r]) for r, v in form] for form in s.c]
    scale = lcm(*(v.denominator for form in c for _, v in form))
    c = [tuple((r, v.numerator * (scale // v.denominator)) for r, v in form)
         for form in c]
    n2 = s.dim ** 2
    return _Program(_share(a, n2), _share(b, n2), _share(c, len(s.a)),
                    qa, qb, scale)


def op_count(s: Schedule) -> OpCount:
    """Naive counts, with no common-subexpression elimination, and the
    additions of the program with temporaries that recursive_multiply
    runs."""
    def additions(forms) -> int:
        return sum(max(len(f) - 1, 0) for f in forms)

    forms = s.a + s.b + s.c
    prog = _lower(s)
    return OpCount(
        multiplications=len(s.a),
        additions=additions(forms),
        scalar_multiplications=sum(v not in (1, -1)
                                   for f in forms for _, v in f),
        shared_additions=sum(len(side.temps) + additions(side.forms)
                             for side in (prog.a, prog.b, prog.c)))


def emit_code(s: Schedule, style: str = "flat") -> str:
    """Deterministic straight-line pseudo-code for the schedule.

    Shared subexpressions come first, named s1, s2, ... in the entries of
    A, t1, ... in those of B and u1, ... in the products, as the compiled
    program names them; each form is then printed over atoms and
    temporaries, with the schedule's coefficients.  Products whose two
    input forms are single unit atoms and which feed a single output with
    coefficient 1 are inlined into that output line; everything else gets
    a named product line.  'annotated' appends the originating term
    indices.  Atoms like a11 have one digit per index, so s.dim must be at
    most 9.
    """
    if style not in ("flat", "annotated"):
        raise ValueError(f"unknown style: {style}")
    annotate = style == "annotated"
    a_atoms, b_atoms, c_atoms = (atoms(x, s.dim) for x in "abc")
    prog = _lower(s)

    def unit(form: Form) -> bool:
        return [v for _, v in form] == [1]

    feeds = [[] for _ in s.a]
    for k, form in enumerate(s.c):
        for p, v in form:
            feeds[p].append((k, v))
    inline = {p for p, forms in enumerate(zip(s.a, s.b, feeds))
              if all(map(unit, forms))}

    def names(side: _Side, inputs: list[str], letter: str) -> list[str]:
        return inputs + [f"{letter}{i + 1}" for i in range(len(side.temps))]

    def temp_lines(side: _Side, var: list[str], per: list) -> list[str]:
        """Lines naming side's temporaries over the printed var, where the
        program's variable x is per[x] times printed x; each is printed as
        a primitive int pair and its factor appended to per."""
        lines = []
        for i, (u, v, alpha, beta) in enumerate(side.temps):
            m, pair = _primitive(((var[u], alpha * per[u]),
                                  (var[v], beta * per[v])))
            per.append(m)
            lines.append(f"{var[side.inputs + i]} = {format_sum(pair)}")
        return lines

    sa, sb = names(prog.a, a_atoms, "s"), names(prog.b, b_atoms, "t")
    pa, pb = [Fraction(1)] * len(a_atoms), [Fraction(1)] * len(b_atoms)
    lines = temp_lines(prog.a, sa, pa) + temp_lines(prog.b, sb, pb)
    ab = [(format_sum((sa[x], qa * k * pa[x]) for x, k in fa),
           format_sum((sb[x], qb * k * pb[x]) for x, k in fb))
          for fa, fb, qa, qb in zip(prog.a.forms, prog.b.forms, prog.qa,
                                    prog.qb)]
    for p, (a, b) in enumerate(ab):
        if p not in inline:
            note = f"  # term {p + 1}" if annotate else ""
            lines.append(f"p{p + 1} = ({a}) * ({b}){note}")
    # Printed product p is qa*qb times the int product P_p that c reads.
    sc = names(prog.c, [" * ".join(ab[p]) if p in inline else f"p{p + 1}"
                        for p in range(len(ab))], "u")
    pc = [1 / (qa * qb) for qa, qb in zip(prog.qa, prog.qb)]
    lines += temp_lines(prog.c, sc, pc)
    for k, (form, terms) in enumerate(zip(prog.c.forms, s.c)):
        rhs = format_sum((sc[x], Fraction(w, prog.scale) * pc[x])
                         for x, w in form)
        line = f"{c_atoms[k]} = {rhs}"
        if annotate and terms:
            line += "  # terms " + ",".join(str(p + 1) for p, _ in terms)
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
# the peak about 30 MB above the inputs.
_BATCH_CAP = 1 << 16


def _expressions(side: _Side, inputs: list[str]) -> tuple[str, list[str]]:
    """(clauses, forms): the comprehension clauses "for t0 in [...]" that
    bind side's temporaries, and the source of each form, over the names of
    its inputs.  A coefficient 1 goes first in every sum."""
    var = list(inputs)
    clauses = []
    for i, (u, v, alpha, beta) in enumerate(side.temps):
        terms = sorted([(var[u], alpha), (var[v], beta)],
                       key=lambda t: t[1] != 1)
        clauses.append(f" for t{i} in [{format_sum(terms)}]")
        var.append(f"t{i}")
    return "".join(clauses), [
        format_sum(sorted(((var[x], k) for x, k in f),
                          key=lambda t: t[1] != 1)) for f in side.forms]


def _source(prog: _Program) -> str:
    """Source of down and up for prog, on operands whose n*n block entries
    of a position lie next to each other.

    down reads each position's entries as one tuple, computes every form of
    a side but the unit ones (one block, coefficient 1) for it into one
    tuple and turns those rows into one stream per form with zip; a unit
    form is the strided slice of its block.  up reads the R products of
    each position with zip of the R product streams and returns the
    position's n*n outputs as one tuple, flattened in position order."""
    n2, products = prog.a.inputs, prog.c.inputs

    def down(side: _Side, X: str, out: str) -> tuple[str, str]:
        xs = [f"x{k}" for k in range(n2)]
        clauses, exprs = _expressions(side, xs)
        rows, streams = [], []
        for f, e in zip(side.forms, exprs):
            if len(f) == 1 and f[0][1] == 1 and f[0][0] < n2:
                streams.append(f"*{X}[{f[0][0]}::{n2}]")
            else:
                streams.append(f"*{out}{len(rows)}")
                rows.append(e)
        if not rows:
            return "", ", ".join(streams)
        names = ", ".join(f"{out}{i}" for i in range(len(rows)))
        return (f"    {names}, = zip(*[({', '.join(rows)},) "
                f"for {', '.join(xs)}, in zip(*[iter({X})] * {n2})"
                f"{clauses}])\n", ", ".join(streams))

    (a_rows, a), (b_rows, b) = down(prog.a, "X", "A"), down(prog.b, "Y", "B")
    clauses, outputs = _expressions(
        prog.c, [f"p{r}" for r in range(products)])
    return ("def down(X, Y):\n" + a_rows + b_rows
            + f"    return [{a}], [{b}]\n"
            "def up(P):\n"
            f"    q = len(P) // {products}\n"
            f"    return list(chain.from_iterable([({', '.join(outputs)},)\n"
            f"        for {', '.join(f'p{r}' for r in range(products))}, in\n"
            "        zip(*[P[i:i + q] for i in range(0, len(P), q)])"
            f"{clauses}]))\n")


def _build(prog: _Program):
    """(down, up) compiled from _source."""
    env = {"chain": chain}
    exec(_source(prog), env)
    return env["down"], env["up"]


def _lane_bits(side: _Side) -> int:
    """A lane width w with 2**(w-1) above every coefficient of the cleared
    forms and every one the side's literals can make: a temporary is at
    most |alpha| + |beta| times any earlier variable, a form at most the
    sum of its |coefficients| times any variable.  The width is minimal,
    not tensor.lane_bits's whole words: the proof compares packed ints and
    never reads a lane back, and wider lanes make every packed value, so
    the proof, several times slower."""
    top = 1
    for _, _, alpha, beta in side.temps:
        top *= abs(alpha) + abs(beta)
    bound = max(sum(abs(k) for _, k in f) * top
                for f in side.forms + side.cleared)
    return bound.bit_length() + 1


def _prove(prog: _Program, down, up) -> None:
    """Raise RuntimeError unless down maps one position's entries exactly
    to the cleared a and b forms and up maps the products exactly to the
    cleared c forms, temporaries included.

    Every value down and up compute is a sum of int multiples of their
    inputs, so each map is linear and one evaluation proves it: input k is
    2**(w*k), and a form's value packs its coefficients in lanes of w bits,
    which _lane_bits keeps from overflowing."""
    def point(side, w):
        return [1 << (w * k) for k in range(side.inputs)]

    def packed(side, w):
        return [sum(v << (w * k) for k, v in f) for f in side.cleared]

    w = max(_lane_bits(prog.a), _lane_bits(prog.b))
    wc = _lane_bits(prog.c)
    if (*down(point(prog.a, w), point(prog.b, w)), up(point(prog.c, wc))) \
            != (packed(prog.a, w), packed(prog.b, w), packed(prog.c, wc)):
        raise RuntimeError("compiled program does not compute its forms")


@lru_cache(maxsize=4)
def _compile(t: Tensor):
    """(n, products, down, up, scale) for t's verified schedule.

    down(X, Y) takes a batch of subproblems, each n*n blocks with the block
    digit least significant, and returns the products' a and b operands,
    one batch per product with the product index most significant.
    up(P) takes the products in that layout and returns the n*n output
    blocks, interleaved back into the layout of X, scale times A.B.  Both
    are proved by _prove before they are cached.  Raises ValueError when t
    is not a multiplication tensor (lru_cache keeps no result for that).
    """
    s = extract_schedule(t)
    prog = _lower(s)
    down, up = _build(prog)
    _prove(prog, down, up)
    return s.dim, len(s.a), down, up, prog.scale


@lru_cache(maxsize=4)
def _leaf(m: int):
    """Products of a batch of m x m leaves laid end to end, A's as
    row-major ints and B's as m packed rows: row i of a product is the sum
    of a_ik times packed row k of B, one packed int, in one comprehension
    over the leaves and A's rows.  The sum is unrolled, so the source grows
    as m, and a leaf takes m**2 multiplications of an int by a packed
    row."""
    xs = ", ".join(f"x{k}" for k in range(m)) + ","
    ys = xs.replace("x", "y")
    body = " + ".join(f"x{k}*y{k}" for k in range(m))
    env = {}
    exec("def leaf(X, Y):\n"
         f"    rows = zip(*[zip(*[iter(X)] * {m})] * {m})\n"
         f"    return [{body} for R, ({ys}) in zip(rows, "
         f"zip(*[iter(Y)] * {m}))\n"
         f"            for {xs} in R]\n", env)
    return env["leaf"]


@lru_cache(maxsize=4)
def _movers(size: int, padded: int, n: int, levels: int):
    """(gather, pack, scatter) for the row-major indices of a size x size
    matrix zero-padded to padded x padded, size**2 at each padding
    position, in digit-reversed order: position i + n*n*j holds position
    j, in this order itself, of the top-level block i (row-major), down to
    leaves of side m = padded // n**levels.  So block i is the strided
    slice [i::n*n], the leaf's digits are the most significant, and the
    same holds for the operands of every level: down puts each product's
    batch of subproblems whole, one after another, above their block
    digits.

    gather(num + (0,)) reads a row-major num into that order with
    row-major leaves.  pack(num + (0,), s) reads it into the packed order,
    which has one position per leaf row, holding the row's m entries as
    lanes of s bits, and scatter reads the row-major num of the product
    back out of the lanes of a packed result, position after position."""
    m = side = padded // n ** levels
    rows = [i * padded for i in range(m)]
    for _ in range(levels):
        rows = [k + (bi * padded + bj) * side for k in rows
                for bi in range(n) for bj in range(n)]
        side *= n
    blocks = len(rows) // m
    packed = [r * size + c if r < size and c < size else size * size
              for r, c in (divmod(k + j, padded) for k in rows
                           for j in range(m))]
    place = [0] * size ** 2
    for i, k in enumerate(packed):
        if k < size ** 2:
            place[k] = i
    gather = tuple_getter([packed[(i * blocks + k) * m + c] for i in range(m)
                           for c in range(m) for k in range(blocks)])
    lanes = [tuple_getter(packed[c::m]) for c in range(m)]

    def pack(num, s):
        Y = lanes[-1](num)
        for lane in reversed(lanes[:-1]):
            Y = [(y << s) + x for y, x in zip(Y, lane(num))]
        return Y

    return gather, pack, tuple_getter(place)


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
        # product's slice of each at a time.  Then one up per level
        # descended.
        top = depth
        while depth < levels and len(X) * products <= _BATCH_CAP * n * n:
            X, Y = down(X, Y)
            depth += 1
        if depth == levels:
            P = _leaf(m)(X, Y)
        else:
            X, Y = down(X, Y)
            depth += 1
            qx, qy = len(X) // products, len(Y) // products
            P = list(chain.from_iterable(
                run(X[i * qx:(i + 1) * qx], Y[i * qy:(i + 1) * qy], depth)
                for i in range(products)))
        del X, Y  # up's outputs need not share the peak with the operands
        for _ in range(top, depth):
            P = up(P)
        return P

    gather, pack, scatter = _movers(a.rows, padded, n, levels)
    # Each final lane is scale**levels times an entry of a.num @ b.num, a
    # sum of a.rows products.  Every step is int-linear in the packed B, so
    # no intermediate value needs a bound.
    s = lane_bits(scale ** levels * a.rows * max(map(abs, a.num))
                  * max(map(abs, b.num)))
    # the 0 appended to num is read at every padding position
    product = signed_lanes(run(gather(a.num + (0,)), pack(b.num + (0,), s),
                               0), m, s)
    return MultiplyResult(
        product=Matrix.from_ints(a.den * b.den * scale ** levels, a.rows,
                                 scatter(product)),
        scalar_multiplications=count)
