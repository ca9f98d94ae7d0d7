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
oracle (quantifiers loop over the domain in ascending id order), kept for the
tests to check against, and ``evaluate_table`` computes satisfying-assignment
tables with numpy, which is what makes deep schema instances feasible at desk
scale; ``dualmem eval``, the schema checks and ``falsifying_assignment`` use
the tables. The two implement the same semantics and are cross-checked in the
test suite.

A table is a uint8 array of 0s and 1s with one axis of length n per free
variable bound to an axis. The axes always follow one order: by the depth of
each variable's nearest binder, innermost first, with the variables of a
peeled forall-prefix below every binder. So quantifiers reduce axis 0 and
connectives align their operands by reshape, writing into a fresh operand.
A variable bound to a value (an assignment's, or a split quantifier's) is
no axis: a membership atom reads one member tuple, the elements one element
belongs to, or one edge, and an equality atom gives a one-hot vector.

Tables have at most TABLE_CELL_LIMIT cells. One walk before evaluating finds
the free variables and the widest table; when that fits, evaluation builds
every table whole. Otherwise, before a wider table is built, the nearest
quantifier above it whose variable is one of its axes evaluates its body
once per value of that variable, with the variable bound, and folds the
slices with and (forall) or or (exists), stopping at the first value that
decides a 0-d result; the parts of the body that do not read the variable
are computed once. In a run of directly nested quantifiers over its axes,
such as forall x exists y, the outermost one splits, so that one value of
x can decide the run without every value of y being folded first.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import EvalError, FormulaError, Record
from .structure import DualStructure

KEYWORDS = {"true", "false", "forall", "exists", "in1", "in2"}


class Formula(Record):
    __slots__ = ()


class TrueF(Formula):
    pass


class FalseF(Formula):
    pass


class Membership(Formula):
    tag: int
    left: str
    right: str

    def __post_init__(self):
        if self.tag not in (1, 2):
            raise FormulaError(f"relation tag must be 1 or 2, got {self.tag}")


class Equality(Formula):
    left: str
    right: str


class Not(Formula):
    body: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Iff(Formula):
    left: Formula
    right: Formula


class ForAll(Formula):
    var: str
    body: Formula


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
# descends once per '(', quantifier, '!' and '->', render, free_vars and
# evaluate recurse once per tree level and the tables at most four times: the
# ceiling keeps all of them well inside Python's recursion limit. The deepest
# battery sentence has 25.
MAX_FORMULA_DEPTH = 100


# Binary operators, loosest first: operator -> (precedence level, node class).
_BINARY = {"<->": (0, Iff), "->": (1, Implies), "|": (2, Or), "&": (3, And)}


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
        f = self.binary(0, 0)
        tok = self.peek()
        if tok is not None:
            raise FormulaError(f"trailing input {tok[1]!r}", tok[2])
        return f

    def binary(self, depth: int, level: int) -> Formula:
        """The operators of _BINARY from level on, by precedence climbing: '->'
        groups to the right, one nesting level deeper, the others to the left."""
        f = self.unary(depth)
        while (tok := self.peek()) is not None and tok[1] in _BINARY:  # no identifier is an operator
            op_level, cls = _BINARY[tok[1]]
            if op_level < level:
                break
            self.i += 1
            pos = tok[2]
            if cls is Implies:
                right = self.binary(self._within(depth + 1, pos), op_level)
            else:
                right = self.binary(depth, op_level + 1)
            f = self._node(pos, cls, f, right)
        return f

    def unary(self, depth: int) -> Formula:
        if self._at_op("!"):
            pos = self.next()[2]
            return self._node(pos, Not, self.unary(self._within(depth + 1, pos)))
        return self.atom(depth)

    def atom(self, depth: int) -> Formula:
        kind, value, pos = self.next()
        if kind == "op":
            if value == "(":
                f = self.binary(self._within(depth + 1, pos), 0)
                self.expect_op(")")
                return f
            raise FormulaError(f"unexpected {value!r}", pos)
        if value == "true":
            return TrueF()
        if value == "false":
            return FalseF()
        if value in ("forall", "exists"):
            var_tok = self.peek()
            if var_tok is None or var_tok[0] != "ident" or var_tok[1] in KEYWORDS:
                raise FormulaError(f"dangling quantifier: {value} needs a variable", pos)
            self.i += 1
            body = self.binary(self._within(depth + 1, pos), 0)  # maximal extent
            return self._node(pos, ForAll if value == "forall" else Exists, var_tok[1], body)
        if value in ("in1", "in2"):
            raise FormulaError(f"{value} needs a left-hand variable", pos)
        # variable: must be followed by in1 / in2 / =
        rel = self.peek()
        if rel is None or rel[1] not in ("in1", "in2", "="):
            raise FormulaError("expected 'in1', 'in2' or '=' after variable", rel[2] if rel else len(self.text))
        self.i += 1
        right = self._variable()
        return Equality(value, right) if rel[1] == "=" else Membership(int(rel[1][2]), value, right)

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
    return _scan(f, frozenset(), {})[0]


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
        return env[f.left] in s.relation(f.tag).member_tuples()[env[f.right]]
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

# The most cells a table may have before a quantifier is split over its own
# variable: 16**5, the widest table of every fixed battery sentence but the
# two replacement-pointwise ones on the largest domain the schema checks take.
TABLE_CELL_LIMIT = 1 << 20


class _TooWide(Exception):
    """A table over these axis names would pass TABLE_CELL_LIMIT cells."""

    def __init__(self, names: frozenset[str]):
        super().__init__()
        self.names = names


def _scan(f: Formula, bound: frozenset[str], fvs: dict[int, frozenset[str]]) -> tuple[frozenset[str], int]:
    """f's free variables and the most axes any of its tables takes when the
    names in bound hold values; records every node's free variables in fvs."""
    kind = type(f)
    if kind is Membership or kind is Equality:
        fv = frozenset((f.left, f.right))
        widest = len(fv - bound) if bound else len(fv)
    elif kind is Not:
        fv, widest = _scan(f.body, bound, fvs)
    elif kind is And or kind is Or or kind is Implies or kind is Iff:
        fv_left, wide_left = _scan(f.left, bound, fvs)
        fv_right, wide_right = _scan(f.right, bound, fvs)
        fv = fv_left | fv_right
        widest = max(wide_left, wide_right, len(fv - bound) if bound else len(fv))
    elif kind is ForAll or kind is Exists:
        fv, widest = _scan(f.body, bound - {f.var} if f.var in bound else bound, fvs)
        fv = fv - {f.var}
    elif kind is TrueF or kind is FalseF:
        fv, widest = frozenset(), 0
    else:
        raise EvalError(f"unknown node {f!r}")
    fvs[id(f)] = fv
    return fv, widest


class _Tables:
    """The satisfying-assignment tables of one evaluation.

    A table is a uint8 0/1 array with one axis of length n per name bound to
    an axis, and a name is bound either to an axis (depth[v], the depth of
    its nearest binder) or to a value (env[v]), never both. The axes are
    sorted by depth, deepest first, so a quantifier's variable is always
    axis 0 and both operands of a connective align by reshape alone. A
    writeable table is fresh and held by no one else, so a connective or
    negation may write its result into it; adjacency() views and hoisted
    tables are read-only.

    max_axes is None when every table of the formula fits TABLE_CELL_LIMIT.
    Otherwise a node whose table would take more axes raises _TooWide, and
    the nearest quantifier whose variable is one of them, or the outermost
    of a run of directly nested such quantifiers, evaluates its body once
    per value of its variable. While it does, memo holds the tables of the
    subformulas that do not read the variable, each computed once.
    """

    def __init__(self, s: DualStructure, env: Assignment, fvs: dict[int, frozenset[str]], widest: int):
        self.s = s
        self.n = n = s.domain_size
        self.env = env
        self.depth: dict[str, int] = {}
        self.fvs = fvs
        self.max_axes: int | None = None
        self.memo: dict | None = None
        self.split_var: str | None = None
        self.by_child: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if n ** widest > TABLE_CELL_LIMIT:
            self.max_axes = 0
            while n ** (self.max_axes + 1) <= TABLE_CELL_LIMIT:
                self.max_axes += 1
        else:
            self.table = self.build  # every table fits: no width checks

    def table(self, f: Formula) -> tuple[tuple[str, ...], np.ndarray]:
        """f's axis names, deepest binder first, and its table, within max_axes."""
        fv = self.fvs[id(f)]
        axes = fv.difference(self.env)
        if len(axes) > self.max_axes:
            raise _TooWide(axes)
        memo = self.memo
        if memo is None or self.split_var in fv:
            return self.build(f)
        # One node may sit at two places in a formula under other bindings.
        key = (id(f), *[(self.depth.get(v), self.env.get(v)) for v in fv])
        hit = memo.get(key)
        if hit is None:
            self.memo = None  # keep this table, not its operands'
            try:
                vs, arr = self.build(f)
            finally:
                self.memo = memo
            arr = np.asarray(arr)  # a reduction to 0-d gives a numpy scalar, which has no settable flags
            arr.flags.writeable = False
            hit = memo[key] = (vs, arr)
        return hit

    def build(self, f: Formula) -> tuple[tuple[str, ...], np.ndarray]:
        n, env, depth = self.n, self.env, self.depth
        kind = type(f)
        if kind is Membership:
            rel = self.s.relation(f.tag)
            a, b = env.get(f.left), env.get(f.right)
            if b is not None:  # read b's member tuple
                if a is not None:
                    return (), np.array(a in rel.member_tuples()[b], dtype=np.uint8)
                column = np.zeros(n, dtype=np.uint8)
                column[list(rel.member_tuples()[b])] = 1
                return (f.left,), column
            if a is not None:  # the elements a is a member of
                row = np.zeros(n, dtype=np.uint8)
                row[self.parents(f.tag, a)] = 1
                return (f.right,), row
            if f.left == f.right:  # the elements that are members of themselves
                loops = np.zeros(n, dtype=np.uint8)
                loops[rel.child[rel.child == rel.parent]] = 1
                return (f.left,), loops
            adj = rel.adjacency().view(np.uint8)
            if depth[f.left] > depth[f.right]:
                return (f.left, f.right), adj
            return (f.right, f.left), adj.T
        if kind is ForAll or kind is Exists:
            return self.quantifier(f)
        if kind is Not:
            vs, arr = self.table(f.body)
            return vs, np.bitwise_xor(arr, 1, out=arr if arr.flags.writeable else None)
        if kind is Equality:
            a, b = env.get(f.left), env.get(f.right)
            if a is not None and b is not None:
                return (), np.array(a == b, dtype=np.uint8)
            if f.left == f.right:
                return (f.left,), np.ones(n, dtype=np.uint8)
            if a is not None or b is not None:
                hot = np.zeros(n, dtype=np.uint8)
                hot[b if a is None else a] = 1
                return (f.left if a is None else f.right,), hot
            deeper = depth[f.left] > depth[f.right]
            return ((f.left, f.right) if deeper else (f.right, f.left)), np.eye(n, dtype=np.uint8)
        if kind is And or kind is Or or kind is Implies or kind is Iff:
            va, xa = self.table(f.left)
            vb, xb = self.table(f.right)
            merged = tuple(sorted(set(va).union(vb), key=depth.__getitem__, reverse=True))
            xa = xa.reshape([n if v in va else 1 for v in merged])
            xb = xb.reshape([n if v in vb else 1 for v in merged])
            full = (n,) * len(merged)
            out = next((x for x in (xa, xb) if x.flags.writeable and x.shape == full), None)
            if out is None:
                out = np.empty(full, dtype=np.uint8)
            if kind is And:
                return merged, np.bitwise_and(xa, xb, out=out)
            if kind is Or:
                return merged, np.bitwise_or(xa, xb, out=out)
            if kind is Implies:
                return merged, np.bitwise_or(np.bitwise_xor(xa, 1, out=xa if xa.flags.writeable else None), xb, out=out)
            return merged, np.bitwise_xor(np.bitwise_xor(xa, xb, out=out), 1, out=out)
        if kind is TrueF or kind is FalseF:
            return (), np.array(kind is TrueF, dtype=np.uint8)
        raise EvalError(f"unknown node {f!r}")

    def parents(self, tag: int, a: int) -> np.ndarray:
        """The elements a is a member of in relation tag, by two binary
        searches in its edges sorted by child once per evaluation."""
        if tag not in self.by_child:
            rel = self.s.relation(tag)
            order = np.argsort(rel.child, kind="stable")
            self.by_child[tag] = rel.child[order], rel.parent[order]
        child, parent = self.by_child[tag]
        return parent[np.searchsorted(child, a):np.searchsorted(child, a, side="right")]

    def quantifier(self, f: ForAll | Exists, enclosing: str | None = None) -> tuple[tuple[str, ...], np.ndarray]:
        """f's table; enclosing is the variable of a quantifier directly
        around f, which splits in f's stead when the wide table reads it."""
        var, body, env, depth = f.var, f.body, self.env, self.depth
        value = env.pop(var, None)  # the binder shadows an outer value or axis
        outer = depth.get(var)
        depth[var] = max(depth.values(), default=-1) + 1
        try:
            try:
                if (type(body) is ForAll or type(body) is Exists) and body.var != var:
                    vs, arr = self.quantifier(body, var)  # a run of quantifiers splits at its outermost
                else:
                    vs, arr = self.table(body)
            except _TooWide as wide:
                if var not in wide.names or enclosing in wide.names:
                    raise
                vs = None  # split outside the handler, whose traceback holds the attempt's tables
            if vs is None:
                del depth[var]
                return self.split(f)
        finally:
            if outer is None:
                depth.pop(var, None)
            else:
                depth[var] = outer
            if value is not None:
                env[var] = value
        if vs[:1] != (var,):  # vacuous, unless the empty domain leaves nothing to range over
            return vs, arr if self.n else np.full(arr.shape, type(f) is ForAll, dtype=np.uint8)
        if type(f) is ForAll:  # initial=1: the identity of and on uint8 is 255, which an empty axis would give
            return vs[1:], np.bitwise_and.reduce(arr, axis=0, initial=1)
        return vs[1:], np.bitwise_or.reduce(arr, axis=0)

    def split(self, f: ForAll | Exists) -> tuple[tuple[str, ...], np.ndarray]:
        """f's table as the and (forall) or or (exists) of its body's tables
        with f's variable bound to each value in turn; a 0-d one stops at the
        first value that decides it."""
        var, want_all = f.var, type(f) is ForAll
        fold = np.bitwise_and if want_all else np.bitwise_or
        saved = self.memo, self.split_var
        self.memo, self.split_var = {}, var
        acc = None
        try:
            for value in range(self.n):
                self.env[var] = value
                vs, arr = self.table(f.body)
                if acc is None:  # a reduction to 0-d gives a read-only numpy scalar: np.array makes it an array
                    acc = arr if arr.flags.writeable else np.array(arr)
                else:
                    fold(acc, arr, out=acc)
                del arr  # free this slice before the next one is built
                if acc.ndim == 0 and acc != want_all:
                    break
        finally:
            del self.env[var]
            self.memo, self.split_var = saved
        return vs, acc

    def least_failure(self, body: Formula, names: list[str]) -> Assignment | None:
        """The least values, in the order of names (the axis names, outermost
        binder first), at which body fails, for the names free in it; None
        when it holds everywhere. Too wide a body is split over the first of
        names free in it, so the first value at which it fails is the least."""
        try:
            vs, arr = self.table(body)
        except _TooWide:
            var = next(v for v in names if v in self.fvs[id(body)])
        else:
            failing = np.argwhere(arr.transpose() == 0)  # axes outermost first: rows in lexicographic order
            return dict(zip(reversed(vs), failing[0].tolist())) if len(failing) else None
        rest = [v for v in names if v != var]
        at = self.depth.pop(var)
        try:
            for value in range(self.n):
                self.env[var] = value
                got = self.least_failure(body, rest)
                if got is not None:
                    got[var] = value
                    return got
        finally:
            del self.env[var]
            self.depth[var] = at
        return None


def evaluate_table(s: DualStructure, f: Formula, assignment: Assignment | None = None) -> bool:
    """Same semantics as evaluate, via f's uint8 satisfying-assignment table
    (see _Tables), with the assignment's names bound to values."""
    env = dict(assignment) if assignment else {}
    fvs: dict[int, frozenset[str]] = {}
    free, widest = _scan(f, frozenset(env), fvs)
    missing = free - env.keys()
    if missing:
        raise EvalError(f"unbound free variables: {', '.join(sorted(missing))}")
    for var, val in env.items():
        if not (0 <= val < s.domain_size):
            raise EvalError(f"assignment {var}={val} outside domain of size {s.domain_size}")
    _, arr = _Tables(s, env, fvs, widest).table(f)
    return bool(arr)


def _tables_of(s: DualStructure, f: Formula) -> tuple[frozenset[str], _Tables]:
    """f's free names and the tables of one evaluation of f that binds no
    name to a value; the caller gives each name it binds to an axis a depth."""
    fvs: dict[int, frozenset[str]] = {}
    free, widest = _scan(f, frozenset(), fvs)
    return free, _Tables(s, {}, fvs, widest)


def satisfying_table(s: DualStructure, f: Formula) -> tuple[tuple[str, ...], bytes]:
    """f's free names, sorted, and the bytes of its table over them, one 0/1
    byte per assignment, the first name's axis outermost; the names must fit
    one table of TABLE_CELL_LIMIT cells."""
    free, tables = _tables_of(s, f)
    names = tuple(sorted(free))
    tables.depth.update((v, i) for i, v in enumerate(names))  # the last name is deepest: axis 0
    _, arr = tables.table(f)
    return names, arr.transpose().tobytes()


def falsifying_assignment(s: DualStructure, sentence: Formula) -> Assignment | None:
    """For a false closed sentence, least witness values for its leading universals.

    Peels the outermost forall-prefix and picks the lexicographically least
    tuple of prefix values, outermost binder first, at which the body fails
    (the body of a closed sentence has free variables only among the
    prefix). A name bound twice takes the value of its innermost binder;
    the names free in the body appear once, in order of first occurrence.
    None when the sentence is true.
    """
    free, tables = _tables_of(s, sentence)
    if free:
        raise EvalError("falsifying_assignment needs a closed sentence")
    prefix: list[str] = []
    body = sentence
    while isinstance(body, ForAll):
        prefix.append(body.var)
        body = body.body
    if prefix and not s.domain_size:  # no tuple of prefix values to fail at
        return None
    tables.depth.update((v, i) for i, v in enumerate(prefix))  # an inner binder overrides
    least = tables.least_failure(body, sorted(tables.depth, key=tables.depth.__getitem__))
    if least is None:
        return None
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
    v2 = fresh_var("v_", all_vars(f) | set(params) | reserved)
    functional = ForAll("u", ForAll("v", ForAll(v2, Implies(And(f, rename_free(f, "v", v2)), Equality("v", v2)))))
    image = Iff(Membership(tag, "v", "b"), Exists("u", And(Membership(tag, "u", "a"), f)))
    out: Formula = Implies(functional, ForAll("a", Exists("b", ForAll("v", image))))
    for p in reversed(params):
        out = ForAll(p, out)
    return out
