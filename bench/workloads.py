"""Seeded inputs, the timed operations, and independent output checks.

Inputs come from the seed and the files in ``fixtures/`` through this file's
own code, so every commit receives the same inputs for the same seed.  Every
check uses the plain Fraction loops below, never the mmtensor code that is
being timed.  ``mmtensor`` itself is imported only in ``setup``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
N = 3
SIZE = 27
LADERMAN_SCALARS = 23 ** 2 * 27      # 27 -> 9 -> 3, schoolbook at 3
STRASSEN_SCALARS = 7 ** 3 * 4 ** 3   # 27 padded to 32 -> 16 -> 8 -> 4
STABILIZERS = (6 * 2 ** 3) ** 3      # every signed-perm triple fixes matmul


# -- exact arithmetic of the benchmark's own ----------------------------------

def mat_mul(x, y):
    """Plain triple-loop product of two lists of Fraction rows."""
    cols = list(zip(*y))
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in cols] for row in x]


def transpose(x):
    return [list(col) for col in zip(*x)]


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse3(m):
    """Adjugate over determinant; the cyclic cofactor formula holds for 3x3."""
    d = det3(m)
    cof = [[m[(r + 1) % 3][(c + 1) % 3] * m[(r + 2) % 3][(c + 2) % 3]
            - m[(r + 1) % 3][(c + 2) % 3] * m[(r + 2) % 3][(c + 1) % 3]
            for c in range(3)] for r in range(3)]
    return [[Fraction(cof[c][r]) / d for c in range(3)] for r in range(3)]


def sandwich(g, terms):
    """(G1^-T A G2^T) (x) (G2^-T B G3^T) (x) (G3^-T C G1^T), term by term."""
    inv_t = [transpose(inverse3(x)) for x in g]
    tr = [transpose(x) for x in g]
    return [(mat_mul(mat_mul(inv_t[0], a), tr[1]),
             mat_mul(mat_mul(inv_t[1], b), tr[2]),
             mat_mul(mat_mul(inv_t[2], c), tr[0])) for a, b, c in terms]


def is_matmul(terms, n=N) -> bool:
    """Brent equations: the expansion has 1 on ((i,j),(j,k),(k,i)), else 0."""
    def nz(m):
        return [((i, j), v) for i, row in enumerate(m)
                for j, v in enumerate(row) if v]
    form = {}
    for a, b, c in terms:
        for ka, va in nz(a):
            for kb, vb in nz(b):
                for kc, vc in nz(c):
                    key = (ka, kb, kc)
                    form[key] = form.get(key, 0) + va * vb * vc
    form = {k: v for k, v in form.items() if v}
    want = {((i, j), (j, k), (k, i)): 1
            for i in range(n) for j in range(n) for k in range(n)}
    return form == want


def is_integral(terms) -> bool:
    return all(v.denominator == 1 for t in terms for m in t
               for row in m for v in row)


# -- the tensor-file format ---------------------------------------------------

def read_tensor(text: str):
    """Parse the tensor-file format into (terms, lambda or None)."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    dim = int(lines[0].split()[1])
    pos, lam = 1, None
    if lines[pos].startswith("lambda "):
        lam = Fraction(lines[pos].split()[1])
        pos += 1
    count = int(lines[pos].split()[1])
    pos += 1
    terms = []
    for _ in range(count):
        if lines[pos] != "term":
            raise ValueError(f"expected 'term', got {lines[pos]!r}")
        rows = [[Fraction(tok) for tok in ln.split()]
                for ln in lines[pos + 1:pos + 1 + 3 * dim]]
        terms.append(tuple(rows[k * dim:(k + 1) * dim] for k in range(3)))
        pos += 1 + 3 * dim
    if pos != len(lines):
        raise ValueError("trailing content in tensor file")
    return terms, lam


def write_tensor(terms, n=N) -> str:
    out = [f"dim {n}", f"terms {len(terms)}"]
    for t in terms:
        out.append("term")
        out.extend(" ".join(str(v) for v in row) for m in t for row in m)
    return "\n".join(out) + "\n"


# -- seeded generators --------------------------------------------------------

def nonzero_lambda(rng: random.Random, integral: bool) -> Fraction:
    """|p| <= 9; q = 1 for integral, else 2 <= q <= 9 with q not dividing p."""
    while True:
        p = rng.choice([x for x in range(-9, 10) if x])
        lam = Fraction(p, 1 if integral else rng.randint(2, 9))
        if (lam.denominator == 1) == integral:
            return lam


def signed_permutation(rng: random.Random):
    perm = rng.sample(range(N), N)
    return [[Fraction(rng.choice((1, -1))) if perm[c] == r else Fraction(0)
             for c in range(N)] for r in range(N)]


def dense_matrix(rng: random.Random, integral: bool):
    """L @ U with every off-diagonal entry of L and U in {-1, 1, 2}.

    U's diagonal is +-1 for an integral (unimodular) matrix, else in
    {2, -2, 1/2, -1/2}.  The product is invertible and mostly dense.
    """
    off = (Fraction(-1), Fraction(1), Fraction(2))
    diag = ((Fraction(1), Fraction(-1)) if integral else
            (Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)))
    low = [[Fraction(r == c) if r <= c else rng.choice(off)
            for c in range(N)] for r in range(N)]
    up = [[rng.choice(diag) if r == c else rng.choice(off) if r < c
           else Fraction(0) for c in range(N)] for r in range(N)]
    return mat_mul(low, up)


def image(rng: random.Random, terms, make, *args):
    """terms sandwiched by an isotropy of three matrices make(rng, *args)."""
    return sandwich([make(rng, *args) for _ in range(3)], terms)


def random_operand(rng: random.Random, integral: bool):
    if integral:
        return [[Fraction(rng.randint(-99, 99)) for _ in range(SIZE)]
                for _ in range(SIZE)]
    return [[Fraction(rng.randint(-99, 99), rng.randint(1, 9))
             for _ in range(SIZE)] for _ in range(SIZE)]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()


def run_cli(cli, argv):
    """Run one subcommand in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_calls(cli, argvs):
    """One ("cli.run", subcommand, call) entry per argv, for Workload.calls."""
    return [("cli.run", argv[0], partial(run_cli, cli, argv))
            for argv in argvs]


KINDS = ("int", "frac")
BASES = ("laderman", "variant", "strassen")


class Workload:
    """One closed-loop workload.  Every op runs one input of each entry kind,
    so that every op does the same mix of work.

    ``kind_calls(i, kind)`` lists op i's calls into mmtensor for that kind as
    (span name, tag, zero-argument callable); ``check(i, kind, outputs)``
    returns None when their outputs are right, else a one-line reason.
    """

    name = ""

    def calls(self, i: int):
        return [(kind, name, tag, call) for kind in KINDS
                for name, tag, call in self.kind_calls(i, kind)]

    def exact_counts(self):
        return {}

    def setup(self):
        """Import mmtensor and parse the builtin Laderman fixture."""
        import mmtensor
        from mmtensor import cli
        self.mm, self.cli = mmtensor, cli
        mmtensor.laderman()


class Construct(Workload):
    """construct laderman-variant --lambda=<p/q> --out F, verify, type.

    Negative lambda is passed as ``--lambda=-3/7``: the two-token form
    ``--lambda -3/7`` is read by argparse as a flag and exits 2.
    """

    name = "construct"
    POOL = 32

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"construct:{seed}")
        self.lambdas = {kind: [nonzero_lambda(rng, kind == "int")
                               for _ in range(self.POOL)] for kind in KINDS}
        self.paths = {kind: str(workdir / f"construct-{kind}.tensor")
                      for kind in KINDS}
        self.digest = digest(self.lambdas)

    def kind_calls(self, i, kind):
        lam, path = self.lambdas[kind][i % self.POOL], self.paths[kind]
        return cli_calls(self.cli, (
            ["construct", "laderman-variant", f"--lambda={lam}", "--out",
             path],
            ["verify", "--tensor", path],
            ["type", "--tensor", path, "--compare", "builtin:laderman"]))

    def check(self, i, kind, results):
        lam = self.lambdas[kind][i % self.POOL]
        (c1, _), (c2, verify), (c3, typ) = results
        if (c1, c2, c3) != (0, 0, 0):
            return f"exit codes {(c1, c2, c3)}"
        if verify.strip() != "VERIFIED n=3 terms=23":
            return f"verify printed {verify.strip()!r}"
        if not typ.rstrip().endswith("TYPE MATCH"):
            return "type does not match laderman"
        with open(self.paths[kind]) as fh:
            terms, file_lam = read_tensor(fh.read())
        if file_lam != lam:
            return f"file records lambda {file_lam}, expected {lam}"
        if len(terms) != 23 or not is_matmul(terms):
            return "written tensor fails the Brent equations"
        return None


class Analyze(Workload):
    """census, stabilizer-search and type --compare on corpus files.

    The corpus has three thirds: fixture tensors as they are, their images
    under seeded signed-permutation isotropies (same sparsity, relabelled),
    and their images under dense isotropies with small entries (dense
    factors, larger coefficients).  An op takes one file of each entry kind
    from each third: single-file ops made the op time bimodal (a dense file
    costs about 1.5 times a sparse one), and the tail percentile jumped
    between the modes as the op count of a run changed.  The dense images
    are the same for every seed, in seeded order: the census cost of a
    dense image ranged over a factor of two between isotropies, which moved
    the medians from seed to seed by more than the machine's noise.
    """

    name = "analyze"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"analyze:{seed}")
        lad = read_tensor((FIXTURES / "laderman.tensor").read_text())[0]
        var = [read_tensor(p.read_text())[0]
               for p in sorted(FIXTURES.glob("variant_*.tensor"))]
        fixed = random.Random("analyze:dense")
        dense = {"int": [image(fixed, lad, dense_matrix, True) for _ in var],
                 "frac": [image(fixed, t, dense_matrix, False) for t in var]}
        for tensors in (var, *dense.values()):
            rng.shuffle(tensors)
        thirds = (
            {"int": [lad], "frac": var},
            {"int": [image(rng, lad, signed_permutation) for _ in var],
             "frac": [image(rng, t, signed_permutation) for t in var]},
            dense,
        )
        self.files = {kind: [] for kind in KINDS}
        texts = []
        for n, third in enumerate(thirds):
            for kind, tensors in third.items():
                self.files[kind].append([])
                for m, t in enumerate(tensors):
                    if not is_matmul(t) or is_integral(t) != (kind == "int"):
                        raise RuntimeError("corpus tensor of the wrong kind")
                    texts.append(write_tensor(t))
                    path = workdir / f"corpus-{n}-{kind}-{m}.tensor"
                    path.write_text(texts[-1])
                    self.files[kind][-1].append(str(path))
        self.digest = digest(texts)

    def kind_calls(self, i, kind):
        argvs = []
        for third in self.files[kind]:
            path = third[i % len(third)]
            argvs += (["census", "--tensor", path],
                      ["stabilizer-search", "--tensor", path],
                      ["type", "--tensor", path, "--compare",
                       "builtin:laderman"])
        return cli_calls(self.cli, argvs)

    def check(self, i, kind, results):
        for n in range(0, len(results), 3):
            (c1, census), (c2, stab), (c3, typ) = results[n:n + 3]
            if (c1, c2, c3) != (0, 0, 0):
                return f"exit codes {(c1, c2, c3)}"
            lines = census.splitlines()
            if len(lines) != 27 or not all(ln.endswith(" VERIFIED")
                                           for ln in lines):
                return "census is not 27/27 VERIFIED"
            if stab.strip() != f"stabilizers {STABILIZERS}":
                return f"stabilizer-search printed {stab.strip()!r}"
            if not typ.rstrip().endswith("TYPE MATCH"):
                return "type does not match laderman"
        return None


class Multiply(Workload):
    """recursive_multiply on a 27x27 pair by laderman and laderman_variant
    (threshold 3) and by strassen (threshold 4, padded to 32)."""

    name = "multiply"
    PAIRS = 2  # per entry kind

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"multiply:{seed}")
        self.lam = nonzero_lambda(rng, integral=False)
        self.pairs = {k: [] for k in KINDS}
        for _ in range(self.PAIRS):
            for k in KINDS:
                a = random_operand(rng, k == "int")
                b = random_operand(rng, k == "int")
                self.pairs[k].append((a, b, mat_mul(a, b)))
        self.digest = digest(self.lam, self.pairs)

    def setup(self):
        super().setup()
        mm = self.mm
        self.bases = (("laderman", mm.laderman(), 3, LADERMAN_SCALARS),
                      ("variant", mm.laderman_variant(self.lam), 3,
                       LADERMAN_SCALARS),
                      ("strassen", mm.strassen(), 4, STRASSEN_SCALARS))
        self.operands = {k: [(mm.Matrix(a), mm.Matrix(b)) for a, b, _ in ps]
                         for k, ps in self.pairs.items()}

    def kind_calls(self, i, kind):
        a, b = self.operands[kind][i % self.PAIRS]
        return [("codegen.recursive_multiply", f"{base}.{kind}",
                 partial(self.mm.recursive_multiply, t, a, b,
                         threshold=threshold))
                for base, t, threshold, _ in self.bases]

    def exact_counts(self):
        """Per base: scalar multiplications (what every checked op returned)
        and the schedule's naive additions."""
        mm = self.mm
        return {base: (scalars, mm.op_count(mm.extract_schedule(t)).additions)
                for base, t, _, scalars in self.bases}

    def schoolbook(self, i):
        """``A @ B`` on op i's operands, for the speed-vs-schoolbook figure."""
        pairs = [self.operands[kind][i % self.PAIRS] for kind in KINDS]
        return lambda: [a @ b for a, b in pairs]

    def check(self, i, kind, results):
        want = self.pairs[kind][i % self.PAIRS][2]
        for (base, _, _, scalars), res in zip(self.bases, results):
            if res.product.row_list() != want:
                return f"{base}: product differs from the triple loop"
            if res.scalar_multiplications != scalars:
                return (f"{base}: {res.scalar_multiplications} scalar "
                        f"multiplications, expected {scalars}")
        return None


WORKLOADS = {w.name: w for w in (Construct, Analyze, Multiply)}
