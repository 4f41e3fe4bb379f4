"""Parse and print trilinear-form text like "(a11 + a12)*b22*c21 + ...".

Grammar (whitespace insignificant; digits are ASCII, an index one digit 1-9):

    expr    := ['-'] product (('+'|'-') product)*
    product := factor '*' factor '*' factor
    factor  := atom | '(' linform ')'
    linform := ['-'] lterm (('+'|'-') lterm)*
    lterm   := [coeff '*'] atom
    coeff   := num ['/' num]          num := integer | 'L'
    atom    := ('a'|'b'|'c') digit digit

Each product must contain exactly one a-form, one b-form and one c-form, in
any order.  The symbol L stands for the free parameter and is instantiated to
a nonzero rational at parse time.  Multiplication is always explicit: no
juxtaposition.

print_trilinear writes one product per line, "(a11 + a12)*b22*c21\n+ ...",
and refuses tensors with n > 9, whose indices need two digits.  Its atoms
come from atoms() and its linear forms from format_sum, which codegen uses
for its lines as well.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .matrix import MAX_DIGITS, Matrix, as_fraction
from .tensor import RankOneTerm, Tensor


class TrilinearSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Token kinds: an atom, an ASCII integer, or any other non-space character.
_TOKEN = re.compile(r"(?P<atom>[abc][0-9][0-9])|(?P<int>[0-9]+)|\S")


class _Parser:
    """Recursive descent over the token list, in one pass.

    A product becomes a dict letter -> [(i, j, value)], and dim is the
    largest index seen, so matrices are built once the text is read.
    """

    def __init__(self, text: str, lam: Fraction):
        self.tokens = [(m.lastgroup, m.group(), m.start())
                       for m in _TOKEN.finditer(text)]
        self.tokens.append(("end", "", len(text)))
        self.k = 0
        self.lam = lam
        self.dim = 1

    def error(self, message: str, k=None):
        """A syntax error at the start of token k, by default the next."""
        pos = self.tokens[self.k if k is None else k][2]
        return TrilinearSyntaxError(message, pos)

    def take(self, text: str) -> bool:
        if self.tokens[self.k][1] == text:
            self.k += 1
            return True
        return False

    def expect(self, text: str):
        if not self.take(text):
            raise self.error(f"expected '{text}'")

    def at(self, kind: str) -> bool:
        return self.tokens[self.k][0] == kind

    def expr(self) -> list[dict]:
        if self.take("0"):
            if not self.at("end"):
                raise self.error("junk after '0'")
            return []
        products = []
        while True:
            if self.take("-"):
                sign = -1
            elif self.take("+") or not products:
                sign = 1
            else:
                raise self.error("expected '+' or '-'")
            products.append(self.product(sign))
            if self.at("end"):
                return products

    def product(self, sign: int) -> dict:
        """Three factors, one per letter; sign goes on the first written."""
        forms = {}
        for n in range(3):
            if n:
                self.expect("*")
            start = self.k
            letter, entries = self.factor()
            if letter in forms:
                raise self.error(f"product has two '{letter}' linear forms",
                                 start)
            forms[letter] = entries
        if sign == -1:
            first = next(iter(forms))
            forms[first] = [(i, j, -v) for i, j, v in forms[first]]
        return forms

    def factor(self):
        if self.take("("):
            form = self.linform()
            self.expect(")")
            return form
        letter, i, j = self.atom()
        return letter, [(i, j, Fraction(1))]

    def linform(self):
        letter, entries = None, []
        sign = -1 if self.take("-") else 1
        while True:
            coeff = Fraction(1)
            if not self.at("atom"):
                coeff = self.coeff()
                self.expect("*")
            lt, i, j = self.atom()
            if letter not in (None, lt):
                raise self.error(f"mixed letters '{letter}' and '{lt}' in "
                                 "one linear form", self.k - 1)
            letter = lt
            entries.append((i, j, sign * coeff))
            if self.take("+"):
                sign = 1
            elif self.take("-"):
                sign = -1
            else:
                return letter, entries

    def atom(self):
        kind, text, _ = self.tokens[self.k]
        if kind != "atom":
            raise self.error("expected an atom like a11")
        i, j = int(text[1]), int(text[2])
        if not (i and j):
            raise self.error("indices are 1-based; 0 not allowed")
        self.k += 1
        self.dim = max(self.dim, i, j)
        return text[0], i, j

    def number(self) -> Fraction:
        if self.take("L"):
            if not self.lam:
                raise ValueError(
                    "text uses the L parameter; lam must be nonzero")
            return self.lam
        kind, text, _ = self.tokens[self.k]
        if kind != "int":
            raise self.error("expected a number or L")
        if len(text) > MAX_DIGITS:
            raise self.error(f"number longer than {MAX_DIGITS} digits")
        self.k += 1
        return Fraction(int(text))

    def coeff(self) -> Fraction:
        num = self.number()
        if not self.take("/"):
            return num
        den = self.number()
        if not den:
            raise self.error("zero denominator", self.k - 1)
        return num / den


def parse_trilinear(text: str, lam=1) -> Tensor:
    """Parse trilinear text into a tensor, one rank-one term per product.

    The dimension is inferred from the largest index seen, so a tensor
    whose last rows and columns are unused reads back at a smaller n.  lam
    instantiates the L symbol and must be nonzero when L occurs.
    """
    parser = _Parser(text, as_fraction(lam))
    products = parser.expr()
    dim = parser.dim
    terms = []
    for prod in products:
        mats = {}
        for letter, entries in prod.items():
            rows = [[Fraction(0)] * dim for _ in range(dim)]
            for i, j, v in entries:
                rows[i - 1][j - 1] += v
            mats[letter] = Matrix(rows)
        terms.append(RankOneTerm(mats["a"], mats["b"], mats["c"]))
    return Tensor(dim, terms)


def format_sum(pairs) -> str:
    """Signed sum of (text, coefficient) pairs, e.g. "x + y - 1/2*z".

    Coefficients +-1 are omitted, the first term carries its own '-', and
    an empty sum is "0".  The one formatter for linear forms: trilinear
    factors, schedule products and schedule outputs all go through it.
    """
    chunks = []
    for text, c in pairs:
        body = text if abs(c) == 1 else f"{abs(c)}*{text}"
        if chunks:
            chunks.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            chunks.append(f"-{body}" if c < 0 else body)
    return " ".join(chunks) or "0"


def atoms(letter: str, n: int) -> list[str]:
    """Names like a11 of an n x n matrix's entries, in row-major order.

    Each index is one digit, so n must be at most 9: otherwise a111 would
    name both (1,11) and (11,1).
    """
    if n >= 10:
        raise ValueError("atoms like a11 have one digit per index: n <= 9")
    return [f"{letter}{i}{j}" for i in range(1, n + 1)
            for j in range(1, n + 1)]


def print_trilinear(t: Tensor) -> str:
    """Inverse presentation; parse(print(t)) reproduces t's nonzero terms.

    The text carries no dimension, so the parse has dim equal to the largest
    index used: 2 for tensor_zero(classical(3), (3, 3, 3)).  A factor is
    written bare only when it is a single atom with coefficient 1.  Atoms
    carry one digit per index, so t.dim must be at most 9.
    """
    n = t.dim
    names = {letter: atoms(letter, n) for letter in "abc"}
    terms = t.nonzero_terms()
    if not terms:
        return "0"

    def factor(letter: str, m: Matrix) -> str:
        pairs = [(names[letter][(i - 1) * n + j - 1], c)
                 for i, j, c in m.entries()]
        text = format_sum(pairs)
        return text if [c for _, c in pairs] == [1] else f"({text})"

    return "\n+ ".join("*".join((factor("a", tm.a), factor("b", tm.b),
                                 factor("c", tm.c))) for tm in terms)
