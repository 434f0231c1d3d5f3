"""The hand-written tokenizer and recursive-descent parser that
``chowcalc.expr`` replaced with one compiled scanner, kept verbatim as the
oracle that tests/test_expr_reference.py compares the library against.  It
builds the library's syntax-tree records and raises its ``ParseError``."""
from __future__ import annotations

from dataclasses import dataclass

from chowcalc.expr import (
    Assign,
    BinOp,
    BundleExpr,
    Call,
    Expr,
    Index,
    ListExpr,
    Neg,
    Num,
    ParseError,
    RingExpr,
    Var,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'ident' | 'op'
    text: str
    pos: int


_PUNCT = ("+", "-", "*", "/", "^", "(", ")", "[", "]", ",", ";", "=")


def tokenize(src: str) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("number", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("ident", src[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            out.append(Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


class _Parser:
    def __init__(self, tokens: list[Token], src_len: int):
        self.tokens = tokens
        self.i = 0
        self.src_len = src_len

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        t = self.peek()
        return t.pos if t else self.src_len

    def take(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        want = text or kind
        if t is None:
            raise ParseError("unexpected end of input", self.src_len, (want,))
        if t.kind != kind or (text is not None and t.text != text):
            raise ParseError(f"unexpected token {t.text!r}", t.pos, (want,))
        self.i += 1
        return t

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.peek()
        if t and t.kind == kind and (text is None or t.text == text):
            self.i += 1
            return t
        return None

    # -- grammar ---------------------------------------------------------

    def statement(self) -> Expr | Assign:
        if (
            self.i + 1 < len(self.tokens)
            and self.tokens[self.i].kind == "ident"
            and self.tokens[self.i + 1].kind == "op"
            and self.tokens[self.i + 1].text == "="
        ):
            name = self.take("ident").text
            self.take("op", "=")
            return Assign(name, self.expr())
        return self.expr()

    def expr(self) -> Expr:
        node = self.term()
        while True:
            t = self.peek()
            if t and t.kind == "op" and t.text in ("+", "-"):
                self.i += 1
                node = BinOp(t.text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            t = self.peek()
            if t and t.kind == "op" and t.text in ("*", "/"):
                self.i += 1
                node = BinOp(t.text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        if self.accept("op", "-"):
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.accept("op", "^"):
            return BinOp("^", base, self.unary())  # right-associative
        return base

    def atom(self) -> Expr:
        t = self.peek()
        if t is None:
            raise ParseError(
                "unexpected end of input", self.src_len, ("number", "identifier", "(")
            )
        if t.kind == "number":
            self.i += 1
            return Num(int(t.text))
        if t.kind == "op" and t.text == "(":
            self.i += 1
            node = self.expr()
            self.take("op", ")")
            return node
        if t.kind == "op" and t.text == "[":
            self.i += 1
            items = self.expr_list("]")
            self.take("op", "]")
            return ListExpr(tuple(items))
        if t.kind == "ident":
            self.i += 1
            name = t.text
            if name == "ring" and self.peek() and self.peek().text == "[":
                return self.ring_tail()
            if name == "bundle" and self.peek() and self.peek().text == "(":
                return self.bundle_tail()
            if self.accept("op", "("):
                args = self.expr_list(")")
                self.take("op", ")")
                return Call(name, tuple(args))
            if self.accept("op", "["):
                args = self.expr_list("]")
                self.take("op", "]")
                return Index(name, tuple(args))
            return Var(name)
        raise ParseError(
            f"unexpected token {t.text!r}", t.pos, ("number", "identifier", "(", "[")
        )

    def ring_tail(self) -> RingExpr:
        self.take("op", "[")
        names = [self.take("ident").text]
        while self.accept("op", ","):
            names.append(self.take("ident").text)
        self.take("op", ";")
        weights = [int(self.take("number").text)]
        while self.accept("op", ","):
            weights.append(int(self.take("number").text))
        self.take("op", "]")
        self.take("op", "(")
        rels = self.expr_list(")")
        self.take("op", ")")
        if len(names) != len(weights):
            raise ParseError("variable and weight counts differ", self.pos())
        return RingExpr(tuple(names), tuple(weights), tuple(rels))

    def bundle_tail(self) -> BundleExpr:
        self.take("op", "(")
        rank = self.expr()
        self.take("op", ";")
        classes = self.expr_list(")")
        self.take("op", ")")
        return BundleExpr(rank, tuple(classes))

    def expr_list(self, closer: str) -> list[Expr]:
        t = self.peek()
        if t and t.kind == "op" and t.text == closer:
            return []
        items = [self.expr()]
        while self.accept("op", ","):
            items.append(self.expr())
        return items


def parse(src: str) -> Expr | Assign:
    """Parse a statement; raises ParseError with position on bad input."""
    tokens = tokenize(src)
    p = _Parser(tokens, len(src))
    node = p.statement()
    t = p.peek()
    if t is not None:
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return node
