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

A text is parsed once: ``parse`` reads one ``lru_cache`` of 1024 texts
(``_kept``; ``parse.cache_info`` and ``parse.cache_clear`` are its own), so
a re-asked statement is the identical tree and is not tokenized.  Ring
literals share that memo.  Before a statement is tokenized, each
``ring[...](...)`` span in it other than the whole text is found by its
bracket characters and parsed as its own text, and its tree stands as one
token; only the text around it is tokenized.  So a re-asked literal is the
identical ``RingExpr`` in any statement, and a memo keyed by it finds it by
identity.  If that parse fails or runs out of stack (a span that fails on
its own or is nested too deeply, or a literal where the grammar takes
none), the statement ``parse`` was given is parsed again from every token,
so every error reads as it would without the memo.  Only that statement
is: a literal nested in others fails up through them without a parse of
its own, so n nested literals cost one parse from every token, not n.  A
text that fails is never kept, for ``lru_cache`` keeps no call that raised.
"""
from __future__ import annotations

import functools
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
    out: list = []
    _scan(src, 0, len(src), out)
    out.append(("end", "", len(src)))
    return out


def _scan(src: str, pos: int, endpos: int, out: list) -> None:
    """Append the tokens of src[pos:endpos] to `out`, at their positions in
    `src`."""
    for m in _TOKEN.finditer(src, pos, endpos):
        g = m.lastindex
        text, at = m[g], m.start(g)
        if g == 1:
            out.append(("number", text, at))
        elif g == 3:
            out.append((text, text, at))
        elif g == 2 and (text[0].isalpha() or text[0] == "_"):
            out.append(("ident", text, at))
        else:  # also a word led by a numeral that is no letter, like '²' or '½'
            raise ParseError(f"unexpected character {text[0]!r}", at)


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


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.i = 0

    def take(self, kind: str) -> str:
        """The next token's text; it must be of `kind`."""
        t_kind, text, pos = self.tokens[self.i]
        if t_kind != kind:
            what = "end of input" if t_kind == "end" else f"token {text!r}"
            raise ParseError(f"unexpected {what}", pos, (kind,))
        self.i += 1
        return text

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
        if self.tokens[self.i][0] == "-":
            self.i += 1
            return Neg(self.unary())
        base = self.atom()
        if self.tokens[self.i][0] == "^":
            self.i += 1
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
                return self.ring_tail()
            if text == "bundle" and after == "(":
                return self.bundle_tail()
            if after == "(":
                self.i += 1
                return Call(text, self.expr_list(")"))
            if after == "[":
                self.i += 1
                return Index(text, self.expr_list("]"))
            return Var(text)
        if kind == "tree":  # a ring literal parsed as its own text
            return text
        if kind == "end":
            raise ParseError("unexpected end of input", pos, ("number", "identifier", "("))
        raise ParseError(f"unexpected token {text!r}", pos, ("number", "identifier", "(", "["))

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
        while self.tokens[self.i][0] == ",":
            self.i += 1
            items.append(self.take(kind))
        return tuple(items)

    def expr_list(self, closer: str) -> tuple[Expr, ...]:
        """Comma-separated expressions, possibly none, and then `closer`."""
        items = []
        if self.tokens[self.i][0] != closer:
            items.append(self.expr())
            while self.tokens[self.i][0] == ",":
                self.i += 1
                items.append(self.expr())
        self.take(closer)
        return tuple(items)

    def statement(self) -> Expr | Assign:
        t = self.tokens
        if t[0][0] == "ident" and t[1][0] == "=":  # an ident is never the last token
            self.i = 2
            node = Assign(t[0][1], self.expr())
        else:
            node = self.expr()
        kind, text, pos = t[self.i]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return node


# 'ring' then '[', as the scanner reads them: 'ring' starts a word
_RING_START = re.compile(r"\bring\s*\[")
_BRACKET = re.compile(r"[\[\]()]")
_PAREN_NEXT = re.compile(r"\s*\(")


def _literal_end(src: str, i: int) -> int | None:
    """One past the ')' that closes the relations of the ring literal whose
    '[' is at `i`, by bracket depth; None if the brackets do not balance or
    no '(' follows the ']'."""
    depth, header = 0, True
    for m in _BRACKET.finditer(src, i):
        if m[0] in "[(":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                if not header:
                    return m.end()
                if not _PAREN_NEXT.match(src, m.end()):
                    return None
                header = False
    return None


def _tokens_around_literals(src: str) -> list | None:
    """The tokens of `src` with each ring literal but one that is the whole
    text as one ('tree', the tree of its text, its position) token; None if
    there is no such literal."""
    out: list = []
    pos = 0
    for m in _RING_START.finditer(src):
        start = m.start()
        if start < pos:  # inside a literal already parsed
            continue
        end = _literal_end(src, m.end() - 1)
        if end is not None and end - start < len(src):
            _scan(src, pos, start, out)
            out.append(("tree", _kept(src[start:end]), start))
            pos = end
    if not out:
        return None
    _scan(src, pos, len(src), out)
    out.append(("end", "", len(src)))
    return out


class _FromEveryToken(Exception):
    """A text with a ring literal in it failed with its literals as tokens."""


@functools.lru_cache(maxsize=1024)
def _kept(src: str) -> Expr | Assign:
    """The tree of `src` with each ring literal in it parsed as its own text,
    kept in the memo of texts; raises ``_FromEveryToken`` if that fails, so
    that only the text ``parse`` was given is parsed again from every token,
    and not each enclosing literal of a nested one."""
    try:
        tokens = _tokens_around_literals(src)
        if tokens is not None:
            return _Parser(tokens).statement()
    except (ParseError, RecursionError, _FromEveryToken):
        raise _FromEveryToken from None
    return _Parser(tokenize(src)).statement()


def parse(src: str) -> Expr | Assign:
    """Parse a statement; raises ParseError with position on bad input."""
    try:
        return _kept(src)
    except _FromEveryToken:  # so that the error reads as it would without the memo
        return _Parser(tokenize(src)).statement()


parse.cache_info, parse.cache_clear = _kept.cache_info, _kept.cache_clear
