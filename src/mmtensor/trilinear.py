"""Parse and print trilinear-form text like "(a11 + a12)*b22*c21 + ...".

Grammar (whitespace insignificant, indices 1..9):

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
and refuses tensors with n > 9, whose indices need two digits.  Its linear
forms come from format_sum, which codegen uses for its lines as well.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import Matrix, as_fraction
from .tensor import RankOneTerm, Tensor


class TrilinearSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise TrilinearSyntaxError(f"expected '{ch}'", self.pos)

    def at_end(self) -> bool:
        return self.peek() == ""


class _Parser:
    """Parses into symbolic products; matrices are built once dim is known."""

    def __init__(self, text: str, lam: Fraction):
        self.s = _Scanner(text)
        self.lam = lam
        self.lam_used = False

    def parse(self) -> list[dict]:
        s = self.s
        if s.peek() == "0":
            s.take("0")
            if not s.at_end():
                raise TrilinearSyntaxError("junk after '0'", s.pos)
            return []
        products = []
        sign = -1 if s.take("-") else 1
        if sign == 1:
            s.take("+")
        products.append(self.product(sign))
        while not s.at_end():
            if s.take("+"):
                sign = 1
            elif s.take("-"):
                sign = -1
            else:
                raise TrilinearSyntaxError("expected '+' or '-'", s.pos)
            products.append(self.product(sign))
        return products

    def product(self, sign: int) -> dict:
        forms = [self.factor()]
        self.s.expect("*")
        forms.append(self.factor())
        self.s.expect("*")
        forms.append(self.factor())
        by_letter = {}
        for letter, entries in forms:
            if letter in by_letter:
                raise TrilinearSyntaxError(
                    f"product has two '{letter}' linear forms", self.s.pos)
            by_letter[letter] = entries
        if set(by_letter) != {"a", "b", "c"}:
            missing = sorted({"a", "b", "c"} - set(by_letter))
            raise TrilinearSyntaxError(
                f"product lacks {'/'.join(missing)} linear form", self.s.pos)
        if sign == -1:
            first = forms[0][0]
            by_letter[first] = [(i, j, -v) for i, j, v in by_letter[first]]
        return by_letter

    def factor(self):
        s = self.s
        if s.take("("):
            letter, entries = self.linform()
            s.expect(")")
            return letter, entries
        letter, i, j = self.atom()
        return letter, [(i, j, Fraction(1))]

    def linform(self):
        s = self.s
        letter = None
        entries = []
        sign = -1 if s.take("-") else 1
        while True:
            lt, i, j, coeff = self.lterm()
            if letter is None:
                letter = lt
            elif lt != letter:
                raise TrilinearSyntaxError(
                    f"mixed letters '{letter}' and '{lt}' in one linear form",
                    s.pos)
            entries.append((i, j, sign * coeff))
            if s.take("+"):
                sign = 1
            elif s.take("-"):
                sign = -1
            else:
                return letter, entries

    def lterm(self):
        coeff = Fraction(1)
        if self.s.peek() not in "abc":
            coeff = self.coeff()
            self.s.expect("*")
        letter, i, j = self.atom()
        return letter, i, j, coeff

    def atom(self):
        s = self.s
        ch = s.peek()
        if ch not in "abc":
            raise TrilinearSyntaxError("expected an atom like a11", s.pos)
        s.pos += 1
        digits = s.text[s.pos:s.pos + 2]
        if len(digits) != 2 or not digits.isdigit():
            raise TrilinearSyntaxError("atom needs two index digits", s.pos)
        s.pos += 2
        i, j = int(digits[0]), int(digits[1])
        if i == 0 or j == 0:
            raise TrilinearSyntaxError("indices are 1-based; 0 not allowed",
                                       s.pos)
        return ch, i, j

    def number(self) -> Fraction:
        s = self.s
        if s.take("L"):
            self.lam_used = True
            return self.lam
        s.skip_ws()
        start = s.pos
        while s.pos < len(s.text) and s.text[s.pos].isdigit():
            s.pos += 1
        if s.pos == start:
            raise TrilinearSyntaxError("expected a number or L", s.pos)
        return Fraction(int(s.text[start:s.pos]))

    def coeff(self) -> Fraction:
        num = self.number()
        if self.s.take("/"):
            den = self.number()
            if den == 0:
                raise TrilinearSyntaxError("zero denominator", self.s.pos)
            return num / den
        return num


def parse_trilinear(text: str, lam=1) -> Tensor:
    """Parse trilinear text into a tensor, one rank-one term per product.

    The dimension is inferred from the largest index seen, so a tensor
    whose last rows and columns are unused reads back at a smaller n.  lam
    instantiates the L symbol and must be nonzero when L occurs.
    """
    lam = as_fraction(lam)
    parser = _Parser(text, lam)
    products = parser.parse()
    if parser.lam_used and lam == 0:
        raise ValueError("text uses the L parameter; lam must be nonzero")
    dim = 1
    for prod in products:
        for entries in prod.values():
            for i, j, _ in entries:
                dim = max(dim, i, j)
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


def format_form(letter: str, entries) -> str:
    """Linear form over atoms like a11, from the (i, j, c) triples of
    Matrix.entries()."""
    return format_sum((f"{letter}{i}{j}", c) for i, j, c in entries)


def print_trilinear(t: Tensor) -> str:
    """Inverse presentation; parse(print(t)) reproduces t's nonzero terms.

    The text carries no dimension, so the parse has dim equal to the largest
    index used: 2 for tensor_zero(classical(3), (3, 3, 3)).  A factor is
    written bare only when it is a single atom with coefficient 1.  Atoms
    carry one digit per index, so t.dim must be at most 9.
    """
    if t.dim >= 10:
        raise ValueError("trilinear text has one digit per index: n <= 9")
    terms = t.nonzero_terms()
    if not terms:
        return "0"

    def factor(letter: str, m: Matrix) -> str:
        entries = list(m.entries())
        text = format_form(letter, entries)
        return text if [e[2] for e in entries] == [1] else f"({text})"

    return "\n+ ".join("*".join((factor("a", tm.a), factor("b", tm.b),
                                 factor("c", tm.c))) for tm in terms)
