"""First-order formulas over two membership predicates and equality.

Terms are variables only. The grammar (whitespace-insensitive):

    keywords    true false forall exists in1 in2
    operators   ! & | -> <-> = ( )
    identifiers [a-zA-Z][a-zA-Z0-9_]*

Precedence ! > & > | > -> > <->, with -> right-associative, & | <-> left-
associative, and quantifier bodies extending maximally to the right. The
canonical printer fully parenthesizes binary operations, so parse(render(f))
is the identity while the printed text nests within MAX_FORMULA_DEPTH.

Two evaluation routes are provided: ``evaluate`` is the naive recursive
oracle (quantifiers loop over the domain in ascending id order), and
``evaluate_table`` computes satisfying-assignment tables with numpy, which is
what makes deep schema instances feasible at desk scale. They implement the
same semantics and are cross-checked in the test suite.

A table is a uint8 array of 0s and 1s with one axis of length n per free
variable. The axes always follow one order: by the depth of each variable's
nearest binder, innermost first, with the variables of an assignment or a
peeled forall-prefix below every binder. So quantifiers reduce axis 0 and
connectives align their operands by reshape, writing into a fresh operand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, FormulaError
from .structure import DualStructure

KEYWORDS = {"true", "false", "forall", "exists", "in1", "in2"}


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Membership(Formula):
    tag: int
    left: str
    right: str

    def __post_init__(self):
        if self.tag not in (1, 2):
            raise FormulaError(f"relation tag must be 1 or 2, got {self.tag}")


@dataclass(frozen=True)
class Equality(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


def conjoin(*parts: Formula) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjoin(*parts: Formula) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# -- lexer / parser ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op><->|->|[!&|=()])|(?P<bad>\S))"
)


def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group("bad") is not None:
            raise FormulaError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        if m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


# The most levels a parsed formula may nest, an atom being one. The parser
# descends once per '(', quantifier, '!' and '->', and render, free_vars,
# evaluate and the tables recurse once per tree level: the ceiling keeps both
# well inside Python's recursion limit. The deepest battery sentence has 25.
MAX_FORMULA_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0
        # id() of each compound node built -> its tree's levels; all stay alive, so ids are unique.
        self.heights: dict[int, int] = {}

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.text)
            raise FormulaError(f"expected {op!r}", pos)
        self.i += 1

    def _within(self, levels: int, pos: int) -> int:
        """levels, when the ceiling allows them; else an error at the token at pos."""
        if levels > MAX_FORMULA_DEPTH:
            raise FormulaError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", pos)
        return levels

    def _node(self, pos: int, cls: type[Formula], *parts) -> Formula:
        node = cls(*parts)
        height = 1 + max(self.heights.get(id(p), 1) for p in parts if isinstance(p, Formula))
        self.heights[id(node)] = self._within(height, pos)
        return node

    def parse(self) -> Formula:
        f = self.iff(0)
        tok = self.peek()
        if tok is not None:
            raise FormulaError(f"trailing input {tok[1]!r}", tok[2])
        return f

    def iff(self, depth: int) -> Formula:
        f = self.implies(depth)
        while self._at_op("<->"):
            f = self._node(self.next()[2], Iff, f, self.implies(depth))
        return f

    def implies(self, depth: int) -> Formula:
        f = self.disjunction(depth)
        if self._at_op("->"):
            pos = self.next()[2]
            return self._node(pos, Implies, f, self.implies(self._within(depth + 1, pos)))
        return f

    def disjunction(self, depth: int) -> Formula:
        f = self.conjunction(depth)
        while self._at_op("|"):
            f = self._node(self.next()[2], Or, f, self.conjunction(depth))
        return f

    def conjunction(self, depth: int) -> Formula:
        f = self.unary(depth)
        while self._at_op("&"):
            f = self._node(self.next()[2], And, f, self.unary(depth))
        return f

    def unary(self, depth: int) -> Formula:
        if self._at_op("!"):
            pos = self.next()[2]
            return self._node(pos, Not, self.unary(self._within(depth + 1, pos)))
        return self.atom(depth)

    def atom(self, depth: int) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input", len(self.text))
        kind, value, pos = tok
        if kind == "op":
            if value == "(":
                self.i += 1
                f = self.iff(self._within(depth + 1, pos))
                self.expect_op(")")
                return f
            raise FormulaError(f"unexpected {value!r}", pos)
        if value == "true":
            self.i += 1
            return TrueF()
        if value == "false":
            self.i += 1
            return FalseF()
        if value in ("forall", "exists"):
            self.i += 1
            var_tok = self.peek()
            if var_tok is None or var_tok[0] != "ident" or var_tok[1] in KEYWORDS:
                raise FormulaError(f"dangling quantifier: {value} needs a variable", pos)
            self.i += 1
            body = self.iff(self._within(depth + 1, pos))  # maximal extent
            return self._node(pos, ForAll if value == "forall" else Exists, var_tok[1], body)
        if value in ("in1", "in2"):
            raise FormulaError(f"{value} needs a left-hand variable", pos)
        # variable: must be followed by in1 / in2 / =
        self.i += 1
        rel = self.peek()
        if rel is None:
            raise FormulaError("expected 'in1', 'in2' or '=' after variable", len(self.text))
        if rel[0] == "ident" and rel[1] in ("in1", "in2"):
            self.i += 1
            right = self._variable()
            return Membership(int(rel[1][2]), value, right)
        if rel[0] == "op" and rel[1] == "=":
            self.i += 1
            right = self._variable()
            return Equality(value, right)
        raise FormulaError("expected 'in1', 'in2' or '=' after variable", rel[2])

    def _variable(self) -> str:
        tok = self.next()
        if tok[0] != "ident" or tok[1] in KEYWORDS:
            raise FormulaError("expected a variable", tok[2])
        return tok[1]

    def _at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] == op


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def _dangles(f: Formula) -> bool:
    # True when the rendering ends in a quantifier body, which would swallow
    # anything to its right on re-parse.
    if isinstance(f, (ForAll, Exists)):
        return True
    if isinstance(f, Not):
        return _dangles(f.body)
    return False


def render(f: Formula) -> str:
    """Canonical text: fully parenthesized binary operations, bare atoms.

    Left operands ending in a quantifier body get an extra pair of
    parentheses so that parse(render(f)) is the identity.
    """
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Membership):
        return f"{f.left} in{f.tag} {f.right}"
    if isinstance(f, Equality):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        return f"!{render(f.body)}"
    if isinstance(f, (And, Or, Implies, Iff)):
        op = {And: "&", Or: "|", Implies: "->", Iff: "<->"}[type(f)]
        left = render(f.left)
        if _dangles(f.left):
            left = f"({left})"
        return f"({left} {op} {render(f.right)})"
    if isinstance(f, ForAll):
        return f"forall {f.var} {render(f.body)}"
    if isinstance(f, Exists):
        return f"exists {f.var} {render(f.body)}"
    raise EvalError(f"unknown node {f!r}")


# -- variables and substitution -------------------------------------------------

def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (Membership, Equality)):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (ForAll, Exists)):
        return free_vars(f.body) - {f.var}
    raise EvalError(f"unknown node {f!r}")


def all_vars(f: Formula) -> frozenset[str]:
    """Free and bound variable names occurring anywhere."""
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (Membership, Equality)):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return all_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return all_vars(f.left) | all_vars(f.right)
    if isinstance(f, (ForAll, Exists)):
        return all_vars(f.body) | {f.var}
    raise EvalError(f"unknown node {f!r}")


def fresh_var(stem: str, taken: frozenset[str]) -> str:
    name = stem
    while name in taken or name in KEYWORDS:
        name += "_"
    return name


def rename_free(f: Formula, old: str, new: str) -> Formula:
    """Substitute variable new for free occurrences of old.

    The caller must pick ``new`` fresh (not bound anywhere in f); this is
    checked and refused rather than silently capturing.
    """
    if old == new:
        return f
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Membership):
        return Membership(f.tag, new if f.left == old else f.left, new if f.right == old else f.right)
    if isinstance(f, Equality):
        return Equality(new if f.left == old else f.left, new if f.right == old else f.right)
    if isinstance(f, Not):
        return Not(rename_free(f.body, old, new))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(rename_free(f.left, old, new), rename_free(f.right, old, new))
    if isinstance(f, (ForAll, Exists)):
        if f.var == old:
            return f
        if f.var == new and old in free_vars(f.body):
            raise FormulaError(f"renaming {old!r} to {new!r} would be captured by a binder")
        return type(f)(f.var, rename_free(f.body, old, new))
    raise EvalError(f"unknown node {f!r}")


# -- naive evaluation ------------------------------------------------------------

Assignment = dict[str, int]


def evaluate(s: DualStructure, f: Formula, assignment: Assignment | None = None) -> bool:
    """Plain recursive satisfaction; quantifiers range over ids in ascending order."""
    env = dict(assignment) if assignment else {}
    for var, val in env.items():
        if not (0 <= val < s.domain_size):
            raise EvalError(f"assignment {var}={val} outside domain of size {s.domain_size}")
    missing = free_vars(f) - env.keys()
    if missing:
        raise EvalError(f"unbound free variables: {', '.join(sorted(missing))}")
    return _eval(s, f, env)


def _eval(s: DualStructure, f: Formula, env: Assignment) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Membership):
        return s.contains(f.tag, env[f.left], env[f.right])
    if isinstance(f, Equality):
        return env[f.left] == env[f.right]
    if isinstance(f, Not):
        return not _eval(s, f.body, env)
    if isinstance(f, And):
        return _eval(s, f.left, env) and _eval(s, f.right, env)
    if isinstance(f, Or):
        return _eval(s, f.left, env) or _eval(s, f.right, env)
    if isinstance(f, Implies):
        return not _eval(s, f.left, env) or _eval(s, f.right, env)
    if isinstance(f, Iff):
        return _eval(s, f.left, env) == _eval(s, f.right, env)
    if isinstance(f, (ForAll, Exists)):
        outer = env.get(f.var)
        want_all = isinstance(f, ForAll)
        result = want_all
        for val in range(s.domain_size):
            env[f.var] = val
            got = _eval(s, f.body, env)
            if got != want_all:
                result = got
                break
        if outer is None:
            env.pop(f.var, None)
        else:
            env[f.var] = outer
        return result
    raise EvalError(f"unknown node {f!r}")


# -- relational (table) evaluation ------------------------------------------------

def _table(s: DualStructure, f: Formula, depth: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The satisfying-assignment table of f: its free variables and a uint8 0/1 array.

    depth[v] is the depth of v's nearest binder. The axes are the free
    variables sorted by depth, deepest first, so a quantifier's variable is
    always axis 0 and both operands of a connective align by reshape alone.
    A writeable table is fresh and held by no one else, so a connective or
    negation may write its result into it; adjacency() views are read-only.
    """
    n = s.domain_size
    if isinstance(f, (TrueF, FalseF)):
        return (), np.array(isinstance(f, TrueF), dtype=np.uint8)
    if isinstance(f, Membership):
        adj = s.relation(f.tag).adjacency().view(np.uint8)
        if f.left == f.right:
            return (f.left,), adj.diagonal()
        if depth[f.left] > depth[f.right]:
            return (f.left, f.right), adj
        return (f.right, f.left), adj.T
    if isinstance(f, Equality):
        if f.left == f.right:
            return (f.left,), np.ones(n, dtype=np.uint8)
        deeper = depth[f.left] > depth[f.right]
        return ((f.left, f.right) if deeper else (f.right, f.left)), np.eye(n, dtype=np.uint8)
    if isinstance(f, Not):
        vs, arr = _table(s, f.body, depth)
        return vs, np.bitwise_xor(arr, 1, out=arr if arr.flags.writeable else None)
    if isinstance(f, (And, Or, Implies, Iff)):
        va, xa = _table(s, f.left, depth)
        vb, xb = _table(s, f.right, depth)
        merged = tuple(sorted(set(va).union(vb), key=depth.__getitem__, reverse=True))
        xa = xa.reshape([n if v in va else 1 for v in merged])
        xb = xb.reshape([n if v in vb else 1 for v in merged])
        full = (n,) * len(merged)
        out = next((x for x in (xa, xb) if x.flags.writeable and x.shape == full), None)
        if out is None:
            out = np.empty(full, dtype=np.uint8)
        if isinstance(f, And):
            return merged, np.bitwise_and(xa, xb, out=out)
        if isinstance(f, Or):
            return merged, np.bitwise_or(xa, xb, out=out)
        if isinstance(f, Implies):
            return merged, np.bitwise_or(np.bitwise_xor(xa, 1, out=xa if xa.flags.writeable else None), xb, out=out)
        return merged, np.bitwise_xor(np.bitwise_xor(xa, xb, out=out), 1, out=out)
    if isinstance(f, (ForAll, Exists)):
        outer = depth.get(f.var)
        depth[f.var] = max(depth.values(), default=-1) + 1
        vs, arr = _table(s, f.body, depth)
        if outer is None:
            del depth[f.var]
        else:
            depth[f.var] = outer
        if vs[:1] != (f.var,):  # vacuous, unless the empty domain leaves nothing to range over
            return vs, arr if n else np.full(arr.shape, isinstance(f, ForAll), dtype=np.uint8)
        reduced = arr.all(axis=0) if isinstance(f, ForAll) else arr.any(axis=0)
        return vs[1:], reduced.view(np.uint8)
    raise EvalError(f"unknown node {f!r}")


def evaluate_table(s: DualStructure, f: Formula, assignment: Assignment | None = None) -> bool:
    """Same semantics as evaluate, via f's uint8 satisfying-assignment table
    (see _table), whose axis order puts the assignment's variables below
    every binder."""
    env = dict(assignment) if assignment else {}
    missing = free_vars(f) - env.keys()
    if missing:
        raise EvalError(f"unbound free variables: {', '.join(sorted(missing))}")
    for var, val in env.items():
        if not (0 <= val < s.domain_size):
            raise EvalError(f"assignment {var}={val} outside domain of size {s.domain_size}")
    vs, arr = _table(s, f, {v: i for i, v in enumerate(env)})
    return bool(arr[tuple(env[v] for v in vs)])


def falsifying_assignment(s: DualStructure, sentence: Formula) -> Assignment | None:
    """For a false closed sentence, least witness values for its leading universals.

    Peels the outermost forall-prefix and picks the lexicographically least
    tuple of prefix values, outermost binder first, at which the body fails
    (the body of a closed sentence has free variables only among the
    prefix). A name bound twice takes the value of its innermost binder;
    the names free in the body appear once, in order of first occurrence.
    None when the sentence is true.
    """
    if free_vars(sentence):
        raise EvalError("falsifying_assignment needs a closed sentence")
    prefix: list[str] = []
    body = sentence
    while isinstance(body, ForAll):
        prefix.append(body.var)
        body = body.body
    vs, arr = _table(s, body, {v: i for i, v in enumerate(prefix)})  # an inner binder overrides
    failing = np.argwhere(arr.transpose() == 0)  # axes outermost first: rows in lexicographic order
    if not len(failing):
        return None
    least = dict(zip(reversed(vs), failing[0].tolist()))
    return {v: least[v] for v in dict.fromkeys(prefix) if v in least}


# -- schema instances --------------------------------------------------------------

def instantiate_separation(f: Formula, tag: int, params: list[str] | tuple[str, ...] = ()) -> Formula:
    """Close the subset-carving schema instance for filter f.

    Produces  forall params forall a exists b forall w
              (w in_tag b <-> (w in_tag a & f)),
    where f may use w and the parameters freely.
    """
    params = list(params)
    reserved = {"a", "b", "w"}
    if reserved & set(params):
        raise FormulaError("parameters may not be named a, b or w")
    fv = free_vars(f)
    if not fv <= {"w"} | set(params):
        extra = sorted(fv - ({"w"} | set(params)))
        raise FormulaError(f"filter has stray free variables: {', '.join(extra)}")
    if fv & {"a", "b"}:
        raise FormulaError("filter would capture the instance variables a or b")
    body = Iff(Membership(tag, "w", "b"), And(Membership(tag, "w", "a"), f))
    out: Formula = ForAll("a", Exists("b", ForAll("w", body)))
    for p in reversed(params):
        out = ForAll(p, out)
    return out


def instantiate_replacement(f: Formula, tag: int, params: list[str] | tuple[str, ...] = ()) -> Formula:
    """Close the image-collection schema instance for class formula f(u, v).

    Produces  forall params
              ((forall u forall v forall v' (f & f[v'/v] -> v = v'))
               -> forall a exists b forall v
                  (v in_tag b <-> exists u (u in_tag a & f))),
    with v' a fresh variable.
    """
    params = list(params)
    reserved = {"a", "b", "u", "v"}
    if reserved & set(params):
        raise FormulaError("parameters may not be named a, b, u or v")
    fv = free_vars(f)
    if not fv <= {"u", "v"} | set(params):
        extra = sorted(fv - ({"u", "v"} | set(params)))
        raise FormulaError(f"class formula has stray free variables: {', '.join(extra)}")
    if fv & {"a", "b"}:
        raise FormulaError("class formula would capture the instance variables a or b")
    v2 = fresh_var("v_", all_vars(f) | set(params) | reserved)
    functional = ForAll("u", ForAll("v", ForAll(v2, Implies(And(f, rename_free(f, "v", v2)), Equality("v", v2)))))
    image = Iff(Membership(tag, "v", "b"), Exists("u", And(Membership(tag, "u", "a"), f)))
    out: Formula = Implies(functional, ForAll("a", Exists("b", ForAll("v", image))))
    for p in reversed(params):
        out = ForAll(p, out)
    return out
