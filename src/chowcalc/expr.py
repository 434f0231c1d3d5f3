"""Expression language for the verification CLI.

Grammar (standard precedence, ^ binds tightest and is right-associative):

    statement := IDENT '=' expr | expr
    expr      := term (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | atom ('^' unary)?
    atom      := NUMBER | list | call | index | IDENT | '(' expr ')'
    call      := IDENT '(' expr (',' expr)* ')'
              |  'ring' '[' idents ';' numbers ']' '(' exprs ')'
              |  'bundle' '(' expr ';' exprs ')'
    index     := IDENT '[' exprs ']'
    list      := '[' exprs ']'

Identifiers start with a letter of any script or '_' and continue with
letters, digits or '_'.  Numbers are runs of decimal digits in any script
('٣' is 3), nonnegative integer literals; rationals are built with '/'.  Any
other non-space character outside + - * / ^ ( ) [ ] , ; = is an unexpected
character at its position.  Parse errors carry a position and the expected
token set.

A ring literal is parsed once per text: the parser keeps the tree of every
literal it parsed, keyed by its source from ``ring`` to the ``)`` that
closes its relations (found by bracket depth over the tokens), in an LRU of
``RING_LITERAL_BOUND`` texts.  A re-asked literal is the identical
``RingExpr``, so a memo keyed by it finds it by identity.  A literal whose
brackets do not balance, or that fails, is parsed in place and not kept, so
every error reads as before.
"""
from __future__ import annotations

import re

from ._record import record


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


# One token per match: optional whitespace, then a run of decimal digits, a
# word, one punctuation character, or any other character, which is an error.
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|([-+*/^()\[\],;=])|(\S))")


def tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ('end', '', len(src)).  The kind
    is 'number', 'ident', or a punctuation character's own text."""
    out = []
    for m in _TOKEN.finditer(src):
        g = m.lastindex
        text, pos = m[g], m.start(g)
        if g == 1:
            out.append(("number", text, pos))
        elif g == 3:
            out.append((text, text, pos))
        elif g == 2 and (text[0].isalpha() or text[0] == "_"):
            out.append(("ident", text, pos))
        else:  # also a word led by a numeral that is no letter, like '²' or '½'
            raise ParseError(f"unexpected character {text[0]!r}", pos)
    out.append(("end", "", len(src)))
    return out


# -- AST ----------------------------------------------------------------------


@record
class Num:
    value: int


@record
class Var:
    name: str


@record
class Neg:
    arg: "Expr"


@record
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@record
class Call:
    name: str
    args: tuple["Expr", ...]


@record
class Index:
    name: str
    args: tuple["Expr", ...]


@record
class ListExpr:
    items: tuple["Expr", ...]


@record
class RingExpr:
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    relations: tuple["Expr", ...]


@record
class BundleExpr:
    rank: "Expr"
    classes: tuple["Expr", ...]


@record
class Assign:
    name: str
    value: "Expr"


Expr = Num | Var | Neg | BinOp | Call | Index | ListExpr | RingExpr | BundleExpr


# ring literal text -> its tree, least recently used first
_RING_LITERALS: dict[str, RingExpr] = {}
RING_LITERAL_BOUND = 1024


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0

    def take(self, kind: str) -> str:
        """The next token's text; it must be of `kind`."""
        t_kind, text, pos = self.tokens[self.i]
        if t_kind != kind:
            what = "end of input" if t_kind == "end" else f"token {text!r}"
            raise ParseError(f"unexpected {what}", pos, (kind,))
        self.i += 1
        return text

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i][0] == kind:
            self.i += 1
            return True
        return False

    # -- grammar ---------------------------------------------------------

    def expr(self) -> Expr:
        node = self.term()
        op = self.tokens[self.i][0]
        while op == "+" or op == "-":
            self.i += 1
            node = BinOp(op, node, self.term())
            op = self.tokens[self.i][0]
        return node

    def term(self) -> Expr:
        node = self.unary()
        op = self.tokens[self.i][0]
        while op == "*" or op == "/":
            self.i += 1
            node = BinOp(op, node, self.unary())
            op = self.tokens[self.i][0]
        return node

    def unary(self) -> Expr:
        if self.accept("-"):
            return Neg(self.unary())
        base = self.atom()
        if self.accept("^"):
            return BinOp("^", base, self.unary())  # right-associative
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "number":
            return Num(int(text))
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        if kind == "[":
            return ListExpr(self.expr_list("]"))
        if kind == "ident":
            after = self.tokens[self.i][0]
            if text == "ring" and after == "[":
                return self.ring_literal(pos)
            if text == "bundle" and after == "(":
                return self.bundle_tail()
            if self.accept("("):
                return Call(text, self.expr_list(")"))
            if self.accept("["):
                return Index(text, self.expr_list("]"))
            return Var(text)
        if kind == "end":
            raise ParseError("unexpected end of input", pos, ("number", "identifier", "("))
        raise ParseError(f"unexpected token {text!r}", pos, ("number", "identifier", "(", "["))

    def ring_literal(self, start: int) -> RingExpr:
        """The ring literal whose 'ring' token is at `start`: the kept tree of
        the same text, or the tree parsed in place, kept if it parses."""
        end = self.literal_end()
        if end is None:
            return self.ring_tail()
        key = self.src[start : self.tokens[end][2] + 1]
        node = _RING_LITERALS.pop(key, None)
        if node is None:
            node = self.ring_tail()
        else:
            self.i = end + 1
        _RING_LITERALS[key] = node
        if len(_RING_LITERALS) > RING_LITERAL_BOUND:
            del _RING_LITERALS[next(iter(_RING_LITERALS))]
        return node

    def literal_end(self) -> int | None:
        """Index of the ')' that closes the relations of the ring literal
        whose '[' is the next token, by bracket depth; None if the brackets
        do not balance or no '(' follows the ']'."""
        tokens, depth, header = self.tokens, 0, True
        for j in range(self.i, len(tokens)):
            kind = tokens[j][0]
            if kind == "[" or kind == "(":
                depth += 1
            elif kind == "]" or kind == ")":
                depth -= 1
                if depth == 0:
                    if not header:
                        return j
                    if tokens[j + 1][0] != "(":
                        return None
                    header = False
        return None

    def ring_tail(self) -> RingExpr:
        self.i += 1  # '['
        names = self.separated("ident")
        self.take(";")
        weights = tuple(map(int, self.separated("number")))
        self.take("]")
        self.take("(")
        rels = self.expr_list(")")
        if len(names) != len(weights):
            raise ParseError("variable and weight counts differ", self.tokens[self.i][2])
        return RingExpr(names, weights, rels)

    def bundle_tail(self) -> BundleExpr:
        self.i += 1  # '('
        rank = self.expr()
        self.take(";")
        return BundleExpr(rank, self.expr_list(")"))

    def separated(self, kind: str) -> tuple[str, ...]:
        """One or more comma-separated tokens of `kind`."""
        items = [self.take(kind)]
        while self.accept(","):
            items.append(self.take(kind))
        return tuple(items)

    def expr_list(self, closer: str) -> tuple[Expr, ...]:
        """Comma-separated expressions, possibly none, and then `closer`."""
        items = []
        if self.tokens[self.i][0] != closer:
            items.append(self.expr())
            while self.accept(","):
                items.append(self.expr())
        self.take(closer)
        return tuple(items)


def parse(src: str) -> Expr | Assign:
    """Parse a statement; raises ParseError with position on bad input."""
    p = _Parser(src)
    t = p.tokens
    if t[0][0] == "ident" and t[1][0] == "=":  # an ident is never the last token
        p.i = 2
        node = Assign(t[0][1], p.expr())
    else:
        node = p.expr()
    kind, text, pos = t[p.i]
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", pos)
    return node
