"""A tiny filter-expression parser for the CLI and quick scripting.

Grammar (case-insensitive keywords)::

    expr     := or
    or       := and ( "or" and )*
    and      := unary ( "and" unary )*
    unary    := "not" unary | "(" expr ")" | predicate
    predicate:= NAME op literal
              | literal op NAME
              | NAME "in" "(" literal ("," literal)* ")"
              | NAME "between" literal "and" literal
    op       := == | != | < | <= | > | >= | =

Literals: integers, floats (``1e-3``, ``inf``, ``nan``), ``true`` /
``false``, and single- or double-quoted strings (matched against
string columns as UTF-8 bytes). Examples::

    price > 100 and region in (3, 5, 7)
    not (score <= 0.25) or label == "spam"
    ts between 1700000000 and 1700003600
"""

from __future__ import annotations

import re

from repro.expr.ast import (
    Comparison,
    Expr,
    ExprError,
    FLIPPED_OPS,
    In,
    Not,
    all_of,
    any_of,
    col,
)

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<op><=|>=|==|!=|<|>|=)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
      | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "in", "between", "true", "false",
             "inf", "nan"}


class ParseError(ExprError):
    """Syntax error in a textual filter expression."""


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"cannot tokenize {rest[:20]!r}")
        pos = m.end()
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "name" and value.lower() in _KEYWORDS:
            kind, value = "keyword", value.lower()
        elif kind == "op" and value == "=":
            value = "=="
        tokens.append((kind, value))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing -------------------------------------------------
    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> str:
        got_kind, got_value = self.next()
        if got_kind != kind or (value is not None and got_value != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, got {got_value or 'end'!r}")
        return got_value

    # -- grammar --------------------------------------------------------
    def parse(self) -> Expr:
        expr = self.or_expr()
        kind, value = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}")
        return expr

    def or_expr(self) -> Expr:
        parts = [self.and_expr()]
        while self.peek() == ("keyword", "or"):
            self.next()
            parts.append(self.and_expr())
        return any_of(*parts)

    def and_expr(self) -> Expr:
        parts = [self.unary()]
        while self.peek() == ("keyword", "and"):
            self.next()
            parts.append(self.unary())
        return all_of(*parts)

    def unary(self) -> Expr:
        kind, value = self.peek()
        if (kind, value) == ("keyword", "not"):
            self.next()
            return Not(self.unary())
        if kind == "lparen":
            self.next()
            expr = self.or_expr()
            self.expect("rparen")
            return expr
        return self.predicate()

    def predicate(self) -> Expr:
        kind, value = self.peek()
        if kind in ("number", "string") or (
            kind == "keyword" and value in ("true", "false", "inf", "nan")
        ):
            # flipped form: literal op name
            literal = self.literal()
            op = self.expect("op")
            name = self.expect("name")
            return Comparison(FLIPPED_OPS[op], name, literal)
        name = self.expect("name")
        kind, value = self.peek()
        if (kind, value) == ("keyword", "in"):
            self.next()
            self.expect("lparen")
            values = [self.literal()]
            while self.peek()[0] == "comma":
                self.next()
                values.append(self.literal())
            self.expect("rparen")
            return In(name, tuple(values))
        if (kind, value) == ("keyword", "between"):
            self.next()
            lo = self.literal()
            self.expect("keyword", "and")
            hi = self.literal()
            return col(name).between(lo, hi)
        op = self.expect("op")
        return Comparison(op, name, self.literal())

    def literal(self):
        kind, value = self.next()
        if kind == "number":
            try:
                return int(value)
            except ValueError:
                return float(value)
        if kind == "string":
            body = value[1:-1]
            return re.sub(r"\\(.)", r"\1", body)
        if kind == "keyword":
            if value == "true":
                return True
            if value == "false":
                return False
            if value == "inf":
                return float("inf")
            if value == "nan":
                return float("nan")
        raise ParseError(f"expected a literal, got {value or 'end'!r}")


def parse(text: str) -> Expr:
    """Parse the textual filter syntax into an :class:`Expr`."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text).parse()


def coerce_where(where) -> Expr | None:
    """Normalise a public ``where=`` argument at the API boundary.

    ``None`` and :class:`Expr` pass through, a string is parsed, and
    anything else is a ``TypeError`` here instead of an
    ``AttributeError`` deep inside the scan.
    """
    if where is None or isinstance(where, Expr):
        return where
    if isinstance(where, str):
        return parse(where)
    raise TypeError(
        "where must be an Expr, an expression string or None, not "
        f"{type(where).__name__}"
    )
