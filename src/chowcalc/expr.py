"""Expression language for the verification CLI.

Grammar (standard precedence, ^ binds tightest and is right-associative):

    statement := IDENT '=' expr | expr
    expr      := term (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | power
    power     := atom ('^' unary)?
    atom      := NUMBER | list | call | index | IDENT | '(' expr ')'
    call      := IDENT '(' expr (',' expr)* ')'
              |  'ring' '[' idents ';' numbers ']' '(' exprs ')'
    index     := IDENT '[' exprs ']'
    list      := '[' exprs ']'

Numbers are nonnegative integer literals; rationals are built with '/'.
Parse errors carry a position and the expected token set.
"""
from __future__ import annotations

from ._record import record



class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


@record(frozen=True)
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


# -- AST ----------------------------------------------------------------------


@record(frozen=True)
class Num:
    value: int

    def to_source(self) -> str:
        return str(self.value)


@record(frozen=True)
class Var:
    name: str

    def to_source(self) -> str:
        return self.name


@record(frozen=True)
class Neg:
    arg: "Expr"

    def to_source(self) -> str:
        return f"-{_wrap(self.arg)}"


@record(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"

    def to_source(self) -> str:
        # Parenthesise so that reparsing the printed form rebuilds this exact
        # tree: ^ is right-associative, everything else left-associative.
        lp = _precedence(self.left)
        rp = _precedence(self.right)
        p = _OP_PREC[self.op]
        left = self.left.to_source()
        right = self.right.to_source()
        if lp < p or (lp == p and self.op == "^"):
            left = f"({left})"
        if rp < p or (rp == p and self.op != "^"):
            right = f"({right})"
        return f"{left} {self.op} {right}"


@record(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]

    def to_source(self) -> str:
        return f"{self.name}({', '.join(a.to_source() for a in self.args)})"


@record(frozen=True)
class Index:
    name: str
    args: tuple["Expr", ...]

    def to_source(self) -> str:
        return f"{self.name}[{', '.join(a.to_source() for a in self.args)}]"


@record(frozen=True)
class ListExpr:
    items: tuple["Expr", ...]

    def to_source(self) -> str:
        return f"[{', '.join(a.to_source() for a in self.items)}]"


@record(frozen=True)
class RingExpr:
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    relations: tuple["Expr", ...]

    def to_source(self) -> str:
        vs = ", ".join(self.variables)
        ws = ", ".join(str(w) for w in self.weights)
        rs = ", ".join(r.to_source() for r in self.relations)
        return f"ring[{vs}; {ws}]({rs})"


@record(frozen=True)
class BundleExpr:
    rank: "Expr"
    classes: tuple["Expr", ...]

    def to_source(self) -> str:
        cs = ", ".join(c.to_source() for c in self.classes)
        return f"bundle({self.rank.to_source()}; {cs})"


@record(frozen=True)
class Assign:
    name: str
    value: "Expr"

    def to_source(self) -> str:
        return f"{self.name} = {self.value.to_source()}"


Expr = Num | Var | Neg | BinOp | Call | Index | ListExpr | RingExpr | BundleExpr

_OP_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _precedence(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _OP_PREC[e.op]
    if isinstance(e, Neg):
        return 0
    return 9


def _wrap(e: Expr) -> str:
    src = e.to_source()
    if isinstance(e, BinOp) and _OP_PREC[e.op] <= 2:
        return f"({src})"
    return src


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
