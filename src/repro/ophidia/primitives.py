"""The ``oph_*`` primitive expression mini-language.

Ophidia's ``OPH_APPLY`` operator transforms each fragment through SQL-like
primitive expressions — the paper's Listing 1 uses::

    oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')

This module implements a tokenizer, a recursive-descent parser and an
evaluator for the subset of primitives the climate workflow needs:

``oph_predicate``
    Elementwise conditional: where the condition on ``x`` holds, emit the
    *then* expression, otherwise the *else* expression (each either a
    number, ``'x'`` for the input value, or ``'NAN'``).
``oph_sum_scalar`` / ``oph_sub_scalar`` / ``oph_mul_scalar`` / ``oph_div_scalar``
    Elementwise arithmetic with a constant.
``oph_math``
    Elementwise transcendental functions (``OPH_MATH_ABS``, ``_SQRT``,
    ``_LOG``, ``_EXP``, ``_SIN``, ``_COS``).
``oph_cast``
    Type conversion.

All primitives take the Ophidia input/output measure-type strings
(``'OPH_FLOAT'`` etc.) as their leading arguments and honour the output
type; nesting is allowed anywhere a measure expression is expected
(``oph_predicate(..., oph_mul_scalar(...), ...)``).
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, Dict, List, Tuple

import numpy as np


class PrimitiveError(ValueError):
    """Malformed primitive expression."""


#: Ophidia measure-type → NumPy dtype.
OPH_TYPES: Dict[str, np.dtype] = {
    "OPH_BYTE": np.dtype(np.int8),
    "OPH_SHORT": np.dtype(np.int16),
    "OPH_INT": np.dtype(np.int32),
    "OPH_LONG": np.dtype(np.int64),
    "OPH_FLOAT": np.dtype(np.float32),
    "OPH_DOUBLE": np.dtype(np.float64),
}


def _dtype(name: Any) -> np.dtype:
    key = str(name).upper()
    if key not in OPH_TYPES:
        raise PrimitiveError(
            f"unknown Ophidia measure type {name!r}; expected one of {sorted(OPH_TYPES)}"
        )
    return OPH_TYPES[key]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|(?P<string>'[^']*')"
    r"|(?P<punct>[(),]))"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PrimitiveError(f"unexpected character at {text[pos:pos + 10]!r}")
        pos = match.end()
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
    return tokens


class _Parser:
    """Recursive-descent parser producing a small AST of tuples.

    AST nodes: ``("call", name, [args])``, ``("num", float)``,
    ``("str", text)``, ``("measure",)``.
    """

    def __init__(self, tokens: List[Tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        tok_kind, tok_value = self.peek()
        if tok_kind is None:
            raise PrimitiveError("unexpected end of expression")
        if kind is not None and tok_kind != kind:
            raise PrimitiveError(f"expected {kind}, got {tok_value!r}")
        if value is not None and tok_value != value:
            raise PrimitiveError(f"expected {value!r}, got {tok_value!r}")
        self.pos += 1
        return tok_value

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise PrimitiveError(
                f"trailing tokens after expression: {self.tokens[self.pos:]}"
            )
        return node

    def expr(self):
        kind, value = self.peek()
        if kind == "name":
            self.take()
            nxt_kind, nxt_value = self.peek()
            if nxt_kind == "punct" and nxt_value == "(":
                return self.call(value)
            if value == "measure":
                return ("measure",)
            raise PrimitiveError(f"unknown identifier {value!r}")
        if kind == "number":
            self.take()
            return ("num", float(value))
        if kind == "string":
            self.take()
            return ("str", value[1:-1])
        raise PrimitiveError(f"unexpected token {value!r}")

    def call(self, name: str):
        self.take("punct", "(")
        args = []
        if self.peek() != ("punct", ")"):
            args.append(self.expr())
            while self.peek() == ("punct", ","):
                self.take()
                args.append(self.expr())
        self.take("punct", ")")
        return ("call", name.lower(), args)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_CONDITION_RE = re.compile(
    r"^\s*(?:x\s*)?(?P<op>>=|<=|!=|==|=|>|<)\s*(?P<value>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*$"
)

_COMPARATORS: Dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    ">": np.greater,
    "<": np.less,
    ">=": np.greater_equal,
    "<=": np.less_equal,
    "==": np.equal,
    "=": np.equal,
    "!=": np.not_equal,
}

_MATH_FUNCS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "OPH_MATH_ABS": np.abs,
    "OPH_MATH_SQRT": np.sqrt,
    "OPH_MATH_LOG": np.log,
    "OPH_MATH_EXP": np.exp,
    "OPH_MATH_SIN": np.sin,
    "OPH_MATH_COS": np.cos,
}


def parse_condition(text: str) -> Tuple[str, float]:
    """Split a predicate condition into ``(comparator symbol, threshold)``.

    Shared by the evaluator and the chunk-pruning planner (which needs
    the symbolic comparator to reason about chunk min/max statistics).
    """
    match = _CONDITION_RE.match(text)
    if match is None:
        raise PrimitiveError(
            f"unsupported predicate condition {text!r}; expected e.g. '>0', 'x>=5'"
        )
    return match.group("op"), float(match.group("value"))


def _parse_condition(text: str) -> Tuple[Callable, float]:
    op, value = parse_condition(text)
    return _COMPARATORS[op], value


def _branch_value(text: str, measure: np.ndarray) -> Any:
    """A predicate branch: 'x' (the input), 'NAN', or a numeric literal."""
    stripped = text.strip()
    if stripped == "x":
        return measure
    if stripped.upper() == "NAN":
        return np.nan
    try:
        return float(stripped)
    except ValueError:
        raise PrimitiveError(
            f"unsupported predicate branch {text!r}; expected 'x', 'NAN' or a number"
        ) from None


def _eval(node, measure: np.ndarray) -> Any:
    kind = node[0]
    if kind == "measure":
        return measure
    if kind == "num":
        return node[1]
    if kind == "str":
        return node[1]
    if kind == "call":
        return _eval_call(node[1], node[2], measure)
    raise PrimitiveError(f"bad AST node {node!r}")  # pragma: no cover


def _eval_measure_arg(node, measure: np.ndarray) -> np.ndarray:
    value = _eval(node, measure)
    if not isinstance(value, np.ndarray):
        raise PrimitiveError(
            "expected a measure expression (the 'measure' keyword or a nested "
            f"primitive call), got {value!r}"
        )
    return value


def _eval_call(name: str, args: List, measure: np.ndarray) -> np.ndarray:
    if name == "oph_predicate":
        if len(args) != 7:
            raise PrimitiveError("oph_predicate takes 7 arguments")
        _dtype(_eval(args[0], measure))
        out_type = _dtype(_eval(args[1], measure))
        data = _eval_measure_arg(args[2], measure)
        var = str(_eval(args[3], measure)).strip()
        if var != "x":
            raise PrimitiveError(f"predicate variable must be 'x', got {var!r}")
        comparator, threshold = _parse_condition(str(_eval(args[4], measure)))
        then_value = _branch_value(str(_eval(args[5], measure)), data)
        else_value = _branch_value(str(_eval(args[6], measure)), data)
        result = np.where(comparator(data, threshold), then_value, else_value)
        return np.asarray(result, dtype=out_type)

    if name in ("oph_sum_scalar", "oph_sub_scalar", "oph_mul_scalar", "oph_div_scalar"):
        if len(args) != 4:
            raise PrimitiveError(f"{name} takes 4 arguments")
        _dtype(_eval(args[0], measure))
        out_type = _dtype(_eval(args[1], measure))
        data = _eval_measure_arg(args[2], measure)
        scalar = _eval(args[3], measure)
        if isinstance(scalar, str):
            scalar = float(scalar)
        ops = {
            "oph_sum_scalar": np.add,
            "oph_sub_scalar": np.subtract,
            "oph_mul_scalar": np.multiply,
            "oph_div_scalar": np.divide,
        }
        if name == "oph_div_scalar" and scalar == 0:
            raise PrimitiveError("oph_div_scalar by zero")
        return np.asarray(ops[name](data, scalar), dtype=out_type)

    if name == "oph_math":
        if len(args) != 4:
            raise PrimitiveError("oph_math takes 4 arguments")
        _dtype(_eval(args[0], measure))
        out_type = _dtype(_eval(args[1], measure))
        data = _eval_measure_arg(args[2], measure)
        func_name = str(_eval(args[3], measure)).upper()
        func = _MATH_FUNCS.get(func_name)
        if func is None:
            raise PrimitiveError(
                f"unknown math function {func_name!r}; "
                f"expected one of {sorted(_MATH_FUNCS)}"
            )
        return np.asarray(func(data.astype(np.float64)), dtype=out_type)

    if name == "oph_cast":
        if len(args) != 3:
            raise PrimitiveError("oph_cast takes 3 arguments")
        _dtype(_eval(args[0], measure))
        out_type = _dtype(_eval(args[1], measure))
        data = _eval_measure_arg(args[2], measure)
        return np.asarray(data, dtype=out_type)

    raise PrimitiveError(f"unknown primitive {name!r}")


# ---------------------------------------------------------------------------
# Compile-once AST cache
# ---------------------------------------------------------------------------

def _parse_uncached(query: str) -> tuple:
    ast = _Parser(_tokenize(query)).parse()
    if ast[0] != "call":
        raise PrimitiveError("a primitive expression must be a function call")
    return ast


@functools.lru_cache(maxsize=256)
def parse_primitive(query: str) -> tuple:
    """Parse *query* into its AST, memoized in a bounded LRU.

    Fragment-parallel operators evaluate the same query once per
    fragment; the cache runs the tokenizer/parser once per distinct
    query string for the whole process instead.  ASTs are immutable
    tuples, so sharing one across threads is safe.  Raises
    :class:`PrimitiveError` for malformed queries (errors are not
    cached, so a corrected query re-parses normally).
    """
    return _parse_uncached(query)


def evaluate_ast(ast: tuple, measure: np.ndarray) -> np.ndarray:
    """Evaluate a pre-parsed primitive AST against the *measure* array."""
    measure = np.asarray(measure)
    result = _eval(ast, measure)
    if result.shape != measure.shape:
        raise PrimitiveError(
            f"primitive changed the measure shape {measure.shape} "
            f"-> {result.shape}"
        )  # pragma: no cover - all current primitives are elementwise
    return result


# ---------------------------------------------------------------------------
# Planner introspection
# ---------------------------------------------------------------------------

_BRANCH_PASSTHROUGH = object()


def _literal_branch(node: tuple):
    """Resolve a predicate branch AST node without evaluating a measure.

    Returns the passthrough sentinel for ``'x'``, a float (possibly NaN)
    for literals, or raises :class:`PrimitiveError` for anything the
    planner cannot reason about (e.g. a nested primitive call).
    """
    if node[0] == "num":
        return float(node[1])
    if node[0] == "str":
        stripped = node[1].strip()
        if stripped == "x":
            return _BRANCH_PASSTHROUGH
        if stripped.upper() == "NAN":
            return float("nan")
        try:
            return float(stripped)
        except ValueError:
            raise PrimitiveError(f"non-literal branch {node[1]!r}") from None
    raise PrimitiveError(f"non-literal branch {node!r}")


class PredicateInfo:
    """Statically-known shape of a prunable ``oph_predicate`` expression.

    ``then_const``/``else_const`` are floats (possibly NaN) when the
    branch is a constant and None when it passes the measure through
    (``'x'``).  ``ast`` retains the full original expression so a
    must-read chunk is still evaluated through the exact evaluator
    semantics, never a re-synthesised expression.
    """

    __slots__ = ("op", "threshold", "then_const", "else_const", "out_dtype", "ast")

    def __init__(self, op, threshold, then_const, else_const, out_dtype, ast):
        self.op = op
        self.threshold = threshold
        self.then_const = then_const
        self.else_const = else_const
        self.out_dtype = out_dtype
        self.ast = ast


def describe_predicate(ast: tuple):
    """Introspect *ast* for the pruning planner.

    Returns a :class:`PredicateInfo` when *ast* is a single top-level
    ``oph_predicate`` applied directly to the measure with a literal
    condition and literal-or-passthrough branches — the shape whose
    outcome chunk min/max statistics can decide.  Any other expression
    returns None and the planner falls back to reading the chunk.
    """
    if not (isinstance(ast, tuple) and ast[0] == "call" and ast[1] == "oph_predicate"):
        return None
    args = ast[2]
    if len(args) != 7 or args[2] != ("measure",):
        return None
    try:
        _dtype(_eval(args[0], np.empty(0)))
        out_dtype = _dtype(_eval(args[1], np.empty(0)))
        if args[3][0] not in ("str", "num") or str(args[3][1]).strip() != "x":
            return None
        if args[4][0] != "str":
            return None
        op, threshold = parse_condition(args[4][1])
        then_value = _literal_branch(args[5])
        else_value = _literal_branch(args[6])
    except PrimitiveError:
        return None
    return PredicateInfo(
        op,
        threshold,
        None if then_value is _BRANCH_PASSTHROUGH else then_value,
        None if else_value is _BRANCH_PASSTHROUGH else else_value,
        out_dtype,
        ast,
    )
