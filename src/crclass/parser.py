"""Expression grammar: parser and canonical printer.

Grammar (ASCII, standard precedence ^ > unary- > * / > + -):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' nat)*
    atom   := nat | ident | '(' expr ')'

Identifiers are z1..z<n>, zb1..zb<n>, u1..u<c> and the imaginary unit I.
Rational literals are written p/q, which the grammar treats as ordinary
division; all arithmetic is exact so the value is identical.

The parser is recursive descent. Parentheses may nest at most MAX_NESTING
deep, so that no input can exhaust the interpreter's stack; a chain of
unary minus signs is read in a loop.

Subexpressions are built as polynomials, and division by a constant
scales them; only a division by a nonconstant expression turns a
subexpression into a RationalExpr, whose denominator atoms come from
that division. Rendering prints the canonical (reduced) form.
"""

from __future__ import annotations

import operator
import re as _re

from .gaussian import GR_I, GaussianRational, gr
from .poly import MultiPoly, VarSpace
from .ratfunc import RationalExpr

MAX_EXPONENT = 512
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


_TOKEN = _re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")
# one digit: every longer index is out of range for 2n + c <= 5, and int()
# never sees a long digit string
_IDENT = _re.compile(r"^(zb|z|u)([1-9])$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {stripped[0]!r}",
                len(text) - len(stripped),
            )
        start = m.start(m.lastindex)
        value = m.group(m.lastindex)
        kind = ("num", "ident", "op")[m.lastindex - 1]
        tokens.append((kind, value, start))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


Value = MultiPoly | RationalExpr


def _literal(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


def _lift(v: Value) -> RationalExpr:
    return v if isinstance(v, RationalExpr) else RationalExpr.from_poly(v)


def _combine(op, a: Value, b: Value) -> Value:
    """a op b for op in +, -, *: on polynomials while both operands are."""
    if isinstance(a, MultiPoly) and isinstance(b, MultiPoly):
        return op(a, b)
    return op(_lift(a), _lift(b))


class _Parser:
    def __init__(self, text: str, space: VarSpace):
        self.tokens = _tokenize(text)
        self.space = space
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> RationalExpr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {value!r}", pos)
        return _lift(e)

    def expr(self) -> Value:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = _combine(operator.add if value == "+" else operator.sub, e, rhs)
            else:
                return e

    def term(self) -> Value:
        e = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                if value == "*":
                    e = _combine(operator.mul, e, rhs)
                elif rhs.is_zero():
                    raise ParseError("division by zero", pos)
                elif (isinstance(e, MultiPoly) and isinstance(rhs, MultiPoly)
                      and rhs.is_constant()):
                    e = e.scale(rhs.as_constant().inverse())
                else:
                    e = _lift(e) / _lift(rhs)
            else:
                return e

    def unary(self) -> Value:
        negate = False
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value != "-":
                break
            self.advance()
            negate = not negate
        e = self.power()
        return -e if negate else e

    def power(self) -> Value:
        e = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value != "^":
                return e
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            exponent = _literal(value, pos)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
            e = e.pow(exponent)

    def atom(self) -> Value:
        kind, value, pos = self.advance()
        if kind == "num":
            return MultiPoly.const(self.space, gr(_literal(value, pos)))
        if kind == "ident":
            if value == "I":
                return MultiPoly.const(self.space, GR_I)
            m = _IDENT.match(value)
            if m is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            kind_name, index = m.group(1), int(m.group(2))
            bound = self.space.n if kind_name in ("z", "zb") else self.space.c
            if index > bound:
                raise ParseError(f"unknown variable {value!r}", pos)
            base = {"z": 0, "zb": self.space.n, "u": 2 * self.space.n}[kind_name]
            return MultiPoly.variable(self.space, base + index - 1)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return e
        shown = value if value else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos)


def parse_expr(text: str, n: int, c: int) -> RationalExpr:
    """Parse an expression over the variables allowed by (n, c)."""
    return _Parser(text, VarSpace(n, c)).parse()


def parse_constant(text: str) -> GaussianRational:
    """Parse a point coordinate: an expression with no variables."""
    return _Parser(text, VarSpace(0, 0)).parse().as_constant()


# -- canonical printing -----------------------------------------------------


def _coeff_mono_text(space: VarSpace, coeff: GaussianRational, mono: tuple[int, ...]) -> str:
    factors = []
    for slot, e in enumerate(mono):
        if e == 0:
            continue
        name = space.var_name(slot)
        factors.append(name if e == 1 else f"{name}^{e}")
    mono_text = "*".join(factors)
    if not mono_text:
        return str(coeff)
    if coeff.is_one():
        return mono_text
    if (-coeff).is_one():
        return f"-{mono_text}"
    if coeff[0] and coeff[1]:
        return f"({coeff})*{mono_text}"
    return f"{coeff}*{mono_text}"


def poly_to_text(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = [_coeff_mono_text(p.space, cf, m) for m, cf in p.monomials()]
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += f" - {part[1:]}"
        else:
            out += f" + {part}"
    return out


def expr_to_text(e: RationalExpr) -> str:
    e = e.reduce()
    if e.den.is_one():
        return poly_to_text(e.num)
    return f"({poly_to_text(e.num)})/({poly_to_text(e.den)})"
