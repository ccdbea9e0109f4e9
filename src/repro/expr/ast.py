"""The predicate AST: one expression object for every pushdown layer.

A filter is built once — ``col("price") > 100`` — and the *same*
object drives all three skipping layers of the read path:

1. catalog file pruning (manifest column min/max, zero file opens),
2. footer zone-map pruning (per-row-group chunk stats, zero data I/O),
3. vectorized decode-time filtering (exact, numpy over decoded
   batches).

Layers 1–2 use the conservative interval evaluator
(:mod:`repro.expr.interval`); layer 3 uses the exact vector evaluator
(:mod:`repro.expr.vector`). Expressions serialize to JSON
(:meth:`Expr.to_json`) so a filter survives a manifest, a wire hop or
a CLI flag unchanged, and :func:`parse` (:mod:`repro.expr.parse`)
reads the human syntax ``repro-inspect --where`` accepts.

Node vocabulary (deliberately small — the paper's scans are
metadata-skippable range/set filters, not a SQL engine):

* :class:`Comparison` — ``column <op> literal`` with op one of
  ``== != < <= > >=``,
* :class:`In` — ``column IN (v1, v2, ...)``,
* :class:`And` / :class:`Or` / :class:`Not` — boolean combinators.

Literals are int, float, bool, str or bytes. String-column values are
stored as bytes; ``str`` literals are encoded to UTF-8 at evaluation
time so both spellings match.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from functools import cached_property

from repro.expr.literals import InLiterals

#: comparison operators, in serialization form
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: op -> op on the flipped operand order (literal <op> column)
FLIPPED_OPS = {
    "==": "==",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}

#: op -> its logical negation (used to push NOT into leaves)
NEGATED_OPS = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


class ExprError(ValueError):
    """Malformed expression (bad op, bad literal, bad JSON)."""


def _check_literal(value) -> None:
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return
    if not isinstance(value, (int, float, str, bytes)):
        raise ExprError(
            f"unsupported literal {value!r}: expected "
            f"int/float/bool/str/bytes"
        )


class Expr:
    """Base node. Combine with ``&``, ``|``, ``~``; never truth-test."""

    # -- combinators ----------------------------------------------------
    def __and__(self, other: "Expr") -> "Expr":
        return And((self, _require_expr(other)))

    def __or__(self, other: "Expr") -> "Expr":
        return Or((self, _require_expr(other)))

    def __invert__(self) -> "Expr":
        return Not(self)

    def __bool__(self) -> bool:
        raise TypeError(
            "an Expr has no truth value; combine with & | ~, not and/or/not"
        )

    # -- introspection --------------------------------------------------
    def columns(self) -> set[str]:
        """Names of every column the expression references."""
        raise NotImplementedError

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(doc: dict) -> "Expr":
        return _from_dict(doc)

    @staticmethod
    def from_json(text: str | bytes) -> "Expr":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExprError(f"bad expression JSON: {exc}") from exc
        return _from_dict(doc)


@dataclass(frozen=True)
class Comparison(Expr):
    """``column <op> value`` over one column and one literal."""

    op: str
    column: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ExprError(f"unknown comparison op {self.op!r}")
        _check_literal(self.value)

    def columns(self) -> set[str]:
        return {self.column}

    def to_dict(self) -> dict:
        return {
            "type": "cmp",
            "op": self.op,
            "column": self.column,
            "value": _literal_to_json(self.value),
        }

    def __repr__(self) -> str:
        return f"(col({self.column!r}) {self.op} {self.value!r})"


@dataclass(frozen=True)
class In(Expr):
    """``column IN (v1, v2, ...)`` — an explicit membership set."""

    column: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ExprError("IN requires at least one value")
        for v in self.values:
            _check_literal(v)

    @cached_property
    def literals(self) -> InLiterals:
        """``values`` prepared for evaluation, built on first use."""
        return InLiterals(self.values)

    def columns(self) -> set[str]:
        return {self.column}

    def to_dict(self) -> dict:
        return {
            "type": "in",
            "column": self.column,
            "values": [_literal_to_json(v) for v in self.values],
        }

    def __repr__(self) -> str:
        return f"(col({self.column!r}) in {self.values!r})"


@dataclass(frozen=True)
class And(Expr):
    """Conjunction of two or more subexpressions."""

    args: tuple

    def __post_init__(self) -> None:
        if len(self.args) < 2:
            raise ExprError("AND requires at least two subexpressions")

    def columns(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.columns()
        return out

    def to_dict(self) -> dict:
        return {"type": "and", "args": [a.to_dict() for a in self.args]}

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction of two or more subexpressions."""

    args: tuple

    def __post_init__(self) -> None:
        if len(self.args) < 2:
            raise ExprError("OR requires at least two subexpressions")

    def columns(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.columns()
        return out

    def to_dict(self) -> dict:
        return {"type": "or", "args": [a.to_dict() for a in self.args]}

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation of a subexpression."""

    arg: Expr

    def columns(self) -> set[str]:
        return self.arg.columns()

    def to_dict(self) -> dict:
        return {"type": "not", "arg": self.arg.to_dict()}

    def __repr__(self) -> str:
        return f"~{self.arg!r}"


class ColumnRef:
    """Builder handle: ``col("x") > 5`` constructs a :class:`Comparison`.

    Not itself an AST node — comparisons always bind a column to a
    literal, so the reference only exists long enough to pick the op.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, value) -> Comparison:  # type: ignore[override]
        return Comparison("==", self.name, value)

    def __ne__(self, value) -> Comparison:  # type: ignore[override]
        return Comparison("!=", self.name, value)

    def __lt__(self, value) -> Comparison:
        return Comparison("<", self.name, value)

    def __le__(self, value) -> Comparison:
        return Comparison("<=", self.name, value)

    def __gt__(self, value) -> Comparison:
        return Comparison(">", self.name, value)

    def __ge__(self, value) -> Comparison:
        return Comparison(">=", self.name, value)

    def __hash__(self) -> int:  # __eq__ override would otherwise kill it
        return hash(self.name)

    def isin(self, values) -> In:
        return In(self.name, tuple(values))

    def between(self, lo, hi) -> Expr:
        """Inclusive range: ``lo <= col <= hi``."""
        return And((Comparison(">=", self.name, lo),
                    Comparison("<=", self.name, hi)))

    def __repr__(self) -> str:
        return f"col({self.name!r})"


def col(name: str) -> ColumnRef:
    """Entry point of the builder API: ``col("price") > 100``."""
    return ColumnRef(name)


def all_of(*exprs: Expr) -> Expr:
    """AND of any number of expressions (one expr passes through)."""
    flat = [_require_expr(e) for e in exprs]
    if not flat:
        raise ExprError("all_of() requires at least one expression")
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def any_of(*exprs: Expr) -> Expr:
    """OR of any number of expressions (one expr passes through)."""
    flat = [_require_expr(e) for e in exprs]
    if not flat:
        raise ExprError("any_of() requires at least one expression")
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def _require_expr(obj) -> Expr:
    if not isinstance(obj, Expr):
        raise ExprError(f"expected an Expr, got {obj!r}")
    return obj


# -- JSON literal encoding ---------------------------------------------
# int/float/bool/str map straight onto JSON; bytes ride in a tagged
# base64 wrapper so binary-column filters round-trip losslessly.

def _literal_to_json(value):
    if isinstance(value, bytes):
        return {"$bytes": base64.b64encode(value).decode("ascii")}
    return value


def _literal_from_json(value):
    if isinstance(value, dict):
        if set(value) != {"$bytes"}:
            raise ExprError(f"bad literal object {value!r}")
        return base64.b64decode(value["$bytes"])
    _check_literal(value)
    return value


def _from_dict(doc) -> Expr:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ExprError(f"bad expression node {doc!r}")
    kind = doc["type"]
    try:
        if kind == "cmp":
            return Comparison(
                doc["op"], doc["column"], _literal_from_json(doc["value"])
            )
        if kind == "in":
            return In(
                doc["column"],
                tuple(_literal_from_json(v) for v in doc["values"]),
            )
        if kind == "and":
            return And(tuple(_from_dict(a) for a in doc["args"]))
        if kind == "or":
            return Or(tuple(_from_dict(a) for a in doc["args"]))
        if kind == "not":
            return Not(_from_dict(doc["arg"]))
    except KeyError as exc:
        raise ExprError(f"expression node {doc!r} missing {exc}") from exc
    raise ExprError(f"unknown expression node type {kind!r}")
